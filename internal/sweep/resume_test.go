package sweep

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

// A lease run's completion records in its store are the run's checkpoint:
// these tests drive that checkpoint through a DirStore, reopening the
// directory the way a restarted process would.

// TestCheckpointFullRunMatches: a finished run's completion records hold
// exactly the bytes of the run itself — every trial is covered, and a
// fresh DirStore over the same directory collects the uninterrupted
// aggregates.
func TestCheckpointFullRunMatches(t *testing.T) {
	spec := cycleSpec(19, []int{16, 24}, 8, 3)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(t.TempDir(), "store")
	st, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunLeased(context.Background(), spec, st, LeaseOptions{Worker: "solo", GrainsPerSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Grains != 8 || stats.Duplicates != 0 {
		t.Errorf("solo run executed %+v, want each of the 8 grains once", stats)
	}

	reopened, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlanOf(spec)
	p, err := LeaseProgress(reopened, "leaserun", plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range p.Sizes {
		if s.Done != 8 || s.Total != 8 {
			t.Errorf("size %d progress %+v, want 8 of 8 trials covered", i, s)
		}
	}
	got, err := CollectLeased(reopened, "leaserun", plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("stored records diverge from the run\nwant %+v\ngot  %+v", want, got)
	}
}

// TestCheckpointResumeIdentical is the kill+resume acceptance: interrupt a
// leased sweep mid-flight, reopen its store directory, let a fresh
// executor run the complement, and demand bytes identical to an
// uninterrupted run — for both sampled and exhaustive sweeps.
func TestCheckpointResumeIdentical(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"sampled", cycleSpec(23, []int{12, 20}, 30, 2)},
		{"exhaustive", exhaustiveSpec([]int{5, 6}, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			plan := mustPlanOf(tc.spec)

			// Phase 1: cancel as the third grain starts — the "kill".
			root := filepath.Join(t.TempDir(), "store")
			st, err := NewDirStore(root)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			started := 0
			_, err = RunLeased(ctx, tc.spec, st, LeaseOptions{
				Worker:        "victim",
				GrainsPerSize: 6,
				Throttle: func(Block) {
					if started++; started == 3 {
						cancel()
					}
				},
			})
			if err == nil {
				t.Fatal("phase 1 finished despite the kill; cannot exercise resume")
			}

			// Phase 2: a fresh process reopens the directory, finds the
			// partial coverage, and runs the rest.
			st2, err := NewDirStore(root)
			if err != nil {
				t.Fatal(err)
			}
			p, err := LeaseProgress(st2, "leaserun", plan)
			if err != nil {
				t.Fatal(err)
			}
			if p.Covered() == 0 || p.Complete() {
				t.Fatalf("progress after the kill = %d of %d trials, want partial coverage", p.Covered(), p.Total())
			}
			if _, err := RunLeased(context.Background(), tc.spec, st2, LeaseOptions{Worker: "rescuer", GrainsPerSize: 6}); err != nil {
				t.Fatalf("resume: %v", err)
			}
			got, err := CollectLeased(st2, "leaserun", plan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("resumed aggregates diverge from the uninterrupted run\nwant %+v\ngot  %+v", want, got)
			}
		})
	}
}

// TestLoadCheckpointMissing: a store directory that holds no run yet reads
// as zero coverage, not an error, so executors start fresh; collecting it
// names the whole trial space as missing.
func TestLoadCheckpointMissing(t *testing.T) {
	spec := cycleSpec(7, []int{10}, 4, 1)
	plan := mustPlanOf(spec)
	st, err := NewDirStore(filepath.Join(t.TempDir(), "absent"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := LeaseProgress(st, "leaserun", plan)
	if err != nil {
		t.Fatalf("progress of an absent run: %v", err)
	}
	if p.Covered() != 0 || p.Total() != 4 || p.Workers != 0 {
		t.Errorf("absent-run progress = %+v, want 0 of 4 trials and no workers", p)
	}
	var inc *IncompleteError
	if _, err := CollectLeased(st, "leaserun", plan); !errors.As(err, &inc) {
		t.Fatalf("collect of an absent run: want *IncompleteError, got %v", err)
	}
	if inc.N != 10 || !reflect.DeepEqual(inc.Missing, []TrialRange{{T0: 0, T1: 4}}) {
		t.Errorf("IncompleteError = %+v, want all of [0,4) missing at n=10", inc)
	}
}
