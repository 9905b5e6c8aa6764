package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-e", "E3", "-sizes", "16,64"}); err != nil {
		t.Errorf("E3: %v", err)
	}
}

func TestRunLowercaseID(t *testing.T) {
	if err := run([]string{"-e", "e1", "-sizes", "16", "-trials", "1"}); err != nil {
		t.Errorf("lowercase id: %v", err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"-e", "E3", "-sizes", "16", "-csv"}); err != nil {
		t.Errorf("csv: %v", err)
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Errorf("list: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-e", "E99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-sizes", "abc"}); err == nil {
		t.Error("bad sizes accepted")
	}
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-csv", "-json"}); err == nil {
		t.Error("-csv together with -json accepted")
	}
	// Negative counts must fail, not run as the default: a negative
	// -trials would otherwise also enter the lease run key. Undersized
	// cycles fail too.
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-e", "E3", "-sizes", "16", "-trials", "-5"},
		{"-e", "E3", "-sizes", "16", "-workers", "-1"},
		{"-e", "E3", "-sizes", "16", "-store", dir, "-lease", "-grains", "-1"},
		// No cycle has fewer than 3 vertices: the enumeration experiments
		// must not swap such a size for their defaults.
		{"-e", "E10", "-sizes", "1"},
		{"-e", "E12", "-sizes", "2"},
		{"-e", "E10", "-sizes", "2,5"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestRunUnknownIDFailsFastWithMenu: an unknown -e must fail before any
// sweep starts, with the typed error listing every registered experiment.
func TestRunUnknownIDFailsFastWithMenu(t *testing.T) {
	err := run([]string{"-e", "E99"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var ue *experiments.UnknownExperimentError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T is not *experiments.UnknownExperimentError", err)
	}
	for _, id := range []string{"E1", "E2", "E9", "E10"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %s", err, id)
		}
	}
}

// TestShardFlagValidation pins the static-schedule flag discipline: -shard
// is a lease schedule over -store, and the retired shard-file and
// checkpoint-file flags are gone.
func TestShardFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-e", "E6", "-shard", "0/2"},                        // no -store
		{"-e", "E6", "-store", dir, "-shard", "0"},           // malformed
		{"-e", "E6", "-store", dir, "-shard", "x/2"},         // malformed
		{"-e", "all", "-store", dir, "-shard", "0/2"},        // needs one experiment
		{"-e", "E6", "-shard", "0/2", "-out", "s.json"},      // shard files are gone
		{"-e", "E6", "-checkpoint", filepath.Join(dir, "c")}, // checkpoint files are gone
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestShardRunWritesMergeableFile: the static CLI path — two -shard
// executors over one store — leaves records that merge to the
// single-process table, and the store reports a typed gap until both ran.
func TestShardRunWritesMergeableFile(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-e", "E6", "-sizes", "16,24", "-trials", "6", "-seed", "9", "-store", dir}
	if err := run(append(common, "-shard", "0/2", "-worker", "s0")); err != nil {
		t.Fatalf("shard 0/2: %v", err)
	}
	e, err := experiments.Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Seed: 9, Sizes: []int{16, 24}, Trials: 6}
	st, err := sweep.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var inc *sweep.IncompleteError
	if _, err := experiments.MergeLeased(e, cfg, st); !errors.As(err, &inc) {
		t.Fatalf("merge after one of two static shards: err = %v, want *sweep.IncompleteError", err)
	}
	if err := run(append(common, "-shard", "1/2", "-worker", "s1", "-workers", "3")); err != nil {
		t.Fatalf("shard 1/2: %v", err)
	}
	tab, err := experiments.MergeLeased(e, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Render() != tab.Render() {
		t.Errorf("static shards table differs from single process\nwant:\n%s\ngot:\n%s", want.Render(), tab.Render())
	}
}

func TestRunJSON(t *testing.T) {
	if err := run([]string{"-e", "E1", "-sizes", "16", "-trials", "1", "-json"}); err != nil {
		t.Errorf("json: %v", err)
	}
}

func TestRunWorkers(t *testing.T) {
	if err := run([]string{"-e", "E6", "-sizes", "16,32", "-trials", "4", "-workers", "3"}); err != nil {
		t.Errorf("workers: %v", err)
	}
}

// TestRunNoAtlas: the atlas-free path is -nokernels; the retired -noatlas
// and -backend flags are refused.
func TestRunNoAtlas(t *testing.T) {
	if err := run([]string{"-e", "E6", "-sizes", "16,32", "-trials", "3", "-nokernels"}); err != nil {
		t.Errorf("-nokernels: %v", err)
	}
	for _, args := range [][]string{
		{"-e", "E6", "-sizes", "16", "-noatlas"},
		{"-e", "E6", "-sizes", "16", "-backend", "atlas"},
	} {
		if err := run(args); err == nil {
			t.Errorf("retired flag accepted: %v", args)
		}
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	if err := run([]string{"-e", "E1", "-sizes", "32", "-trials", "1",
		"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestRunProfileErrors(t *testing.T) {
	if err := run([]string{"-e", "E1", "-sizes", "16", "-cpuprofile", "/nonexistent-dir/x.prof"}); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
	if err := run([]string{"-e", "E1", "-sizes", "16", "-trials", "1", "-memprofile", "/nonexistent-dir/x.prof"}); err == nil {
		t.Error("unwritable -memprofile accepted")
	}
}

func TestRunTimeoutExpired(t *testing.T) {
	// A 1ns budget must abort the run with an error instead of hanging.
	if err := run([]string{"-e", "E2", "-sizes", "1024,2048", "-timeout", "1ns"}); err == nil {
		t.Error("expired timeout produced no error")
	}
}
