package cli

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func TestReportClassifiesAndNamesOffenders(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		wantCode int
		wantSubs []string
	}{
		{
			name: "incomplete is recoverable",
			err: fmt.Errorf("experiments: E6 sweep 0: %w",
				&sweep.IncompleteError{N: 16, Missing: []sweep.TrialRange{{T0: 4, T1: 8}}, Prefix: "lease/e6-abc/s0"}),
			wantCode: ExitIncomplete,
			wantSubs: []string{"incomplete run", `"lease/e6-abc/s0"`, "caused by: sweep: n=16"},
		},
		{
			name: "overlap is corrupt and names the record",
			err: &sweep.OverlapError{N: 24, A: sweep.TrialRange{T0: 0, T1: 8},
				B: sweep.TrialRange{T0: 4, T1: 12}, Key: "lease/e6-abc/s0/done/24-4"},
			wantCode: ExitCorrupt,
			wantSubs: []string{"corrupt data", "double-count", `"lease/e6-abc/s0/done/24-4"`},
		},
		{
			name:     "decode is corrupt and names the file",
			err:      fmt.Errorf("collect: %w", &sweep.DecodeError{Format: sweep.FormatCompletion, Reason: "bad json", Key: "lease/e6-abc/s0/done/0-0"}),
			wantCode: ExitCorrupt,
			wantSubs: []string{"failed decoding", `"lease/e6-abc/s0/done/0-0"`},
		},
		{
			name: "quotient-unsupported is configuration and lists qualifying families",
			err: fmt.Errorf("E10: %w", &sweep.QuotientUnsupportedError{
				Graph: "*graph.Adj", N: 12,
				Qualifying: []string{"cycle (graph.Cycle)", "complete graph (graph.Complete)"}}),
			wantCode: ExitFailure,
			wantSubs: []string{"configuration", "*graph.Adj", "n=12",
				"cycle (graph.Cycle)", "complete graph (graph.Complete)", "drop -quotient"},
		},
		{
			name: "spec conflict is configuration and names both fields",
			err: fmt.Errorf("avgbench: %w", &sweep.SpecConflictError{
				Fields: []string{"Quotient", "Exhaustive"},
				Reason: "Quotient compresses the exhaustive rank space; set Exhaustive too"}),
			wantCode: ExitFailure,
			wantSubs: []string{"configuration", "Quotient and Exhaustive", "rank space"},
		},
		{
			name:     "anything else is generic",
			err:      errors.New("store holds no leased runs"),
			wantCode: ExitFailure,
			wantSubs: []string{"store holds no leased runs"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			code := Report(&out, "tool", tc.err)
			if code != tc.wantCode {
				t.Errorf("code = %d, want %d\noutput:\n%s", code, tc.wantCode, out.String())
			}
			for _, sub := range tc.wantSubs {
				if !strings.Contains(out.String(), sub) {
					t.Errorf("output missing %q:\n%s", sub, out.String())
				}
			}
		})
	}
}
