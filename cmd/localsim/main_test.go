package main

import (
	"strings"
	"testing"
)

func TestRunAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"pruning", "fullview", "cv", "uniform", "greedy", "mis", "changroberts", "cvmsg"} {
		if err := run([]string{"-n", "12", "-alg", alg, "-q"}); err != nil {
			t.Errorf("alg %s: %v", alg, err)
		}
	}
}

func TestRunAllIDSchemes(t *testing.T) {
	for _, scheme := range []string{"random", "identity", "reversed", "bitrev", "worst"} {
		if err := run([]string{"-n", "10", "-ids", scheme, "-q"}); err != nil {
			t.Errorf("ids %s: %v", scheme, err)
		}
	}
}

func TestRunExact(t *testing.T) {
	for _, alg := range []string{"pruning", "uniform", "mis"} {
		if err := run([]string{"-n", "6", "-alg", alg, "-exact", "-q"}); err != nil {
			t.Errorf("exact %s: %v", alg, err)
		}
	}
	// Message algorithms and oversized instances must fail cleanly.
	if err := run([]string{"-n", "6", "-alg", "changroberts", "-exact", "-q"}); err == nil {
		t.Error("-exact with a message algorithm accepted")
	}
	if err := run([]string{"-n", "16", "-alg", "pruning", "-exact", "-q"}); err == nil {
		t.Error("-exact beyond the enumeration cap accepted")
	}
}

func TestRunMessageEngine(t *testing.T) {
	if err := run([]string{"-n", "8", "-alg", "pruning", "-engine", "message", "-q"}); err != nil {
		t.Errorf("message engine: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"badAlg":    {"-alg", "nope"},
		"badIDs":    {"-ids", "nope"},
		"badEngine": {"-engine", "nope"},
		// Native message algorithms skip the engine dispatch; the value
		// must still be checked.
		"badEngineNative": {"-alg", "changroberts", "-engine", "nope"},
		"badN":            {"-n", "2"},
	}
	for name, args := range cases {
		if err := run(append(args, "-q")); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunFlagParseError(t *testing.T) {
	err := run([]string{"-definitely-not-a-flag"})
	if err == nil || !strings.Contains(err.Error(), "flag") {
		t.Errorf("err = %v, want flag parse error", err)
	}
}
