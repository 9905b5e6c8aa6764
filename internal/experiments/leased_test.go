package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestLeasedRunTablesByteIdentical is the lease-mode acceptance at the
// table level: for E2, E6 and the exhaustive E10, executing through the
// lease protocol and collecting from the store renders byte-identical
// tables to a single-process run.
func TestLeasedRunTablesByteIdentical(t *testing.T) {
	cases := []struct {
		id  string
		cfg Config
	}{
		{"E2", Config{Seed: 7, Sizes: []int{16, 32, 64}, Trials: 6}},
		{"E6", Config{Seed: 11, Sizes: []int{16, 33}, Trials: 9}},
		{"E10", Config{Seed: 3, Sizes: []int{5, 6}, Trials: 60}},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			e, err := Get(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := sweep.NewMemStore()
			stats, err := RunLeasedSweeps(context.Background(), e, tc.cfg, st,
				sweep.LeaseOptions{Worker: "solo", GrainsPerSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Grains == 0 {
				t.Errorf("no grains executed: %+v", stats)
			}
			got, err := MergeLeased(e, tc.cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			if want.Render() != got.Render() {
				t.Errorf("leased table differs from single process\nwant:\n%s\ngot:\n%s",
					want.Render(), got.Render())
			}
			// The store is self-describing: the manifest names the run.
			runs, err := FindLeasedRuns(st)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != 1 || runs[0].Manifest.Experiment != tc.id || runs[0].Prefix != LeaseRunPrefix(e, tc.cfg) {
				t.Errorf("FindLeasedRuns = %+v, want one %s run", runs, tc.id)
			}
		})
	}
}

// TestLeasedGoldenTables: every experiment runs as two static lease shards
// of unequal worker pools over one store, and the merge renders its
// committed golden table — all twelve tables lease and merge alike,
// including E3 and E8, whose leased runs hold only a manifest.
func TestLeasedGoldenTables(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			st := sweep.NewMemStore()
			for i := 0; i < 2; i++ {
				cfg := smallCfg()
				cfg.Workers = 1 + 2*i
				opts := sweep.LeaseOptions{Worker: fmt.Sprintf("s%d", i), GrainsPerSize: 4,
					Static: sweep.Shard{Index: i, Count: 2}}
				if _, err := RunLeasedSweeps(context.Background(), e, cfg, st, opts); err != nil {
					t.Fatalf("shard %d/2: %v", i, err)
				}
			}
			got, err := MergeLeased(e, smallCfg(), st)
			if err != nil {
				t.Fatal(err)
			}
			if want := goldenTable(t, e.ID); got.Render() != want {
				t.Errorf("merged table differs from its golden table\nwant:\n%s\ngot:\n%s", want, got.Render())
			}
		})
	}
}

// TestLeasedConcurrentExecutorsIdentical runs three unequal-speed executors
// concurrently over one store — the in-process version of three machines —
// and demands the single-process bytes.
func TestLeasedConcurrentExecutorsIdentical(t *testing.T) {
	e, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 13, Sizes: []int{16, 24}, Trials: 30}
	want, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := sweep.NewMemStore()
	delays := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	var wg sync.WaitGroup
	errs := make([]error, len(delays))
	for i := range delays {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunLeasedSweeps(context.Background(), e, cfg, st, sweep.LeaseOptions{
				Worker:        fmt.Sprintf("w%d", i),
				GrainsPerSize: 6,
				Poll:          time.Millisecond,
				Throttle:      func(sweep.Block) { time.Sleep(delays[i]) },
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("executor %d: %v", i, err)
		}
	}
	got, err := MergeLeased(e, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if want.Render() != got.Render() {
		t.Errorf("concurrent leased table differs from single process\nwant:\n%s\ngot:\n%s",
			want.Render(), got.Render())
	}
}

// TestLeasedManifestRejectsForeignRun: a store holding one (experiment,
// config) run must turn away an executor or merger presenting another.
func TestLeasedManifestRejectsForeignRun(t *testing.T) {
	e, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 1, Sizes: []int{16}, Trials: 4}
	st := sweep.NewMemStore()
	if _, err := RunLeasedSweeps(context.Background(), e, cfg, st,
		sweep.LeaseOptions{Worker: "a", GrainsPerSize: 2}); err != nil {
		t.Fatal(err)
	}
	// Same prefix, different config — only possible if someone plants a
	// manifest by hand, but the executor must still refuse to join.
	other := cfg
	other.Trials = 8
	var buf bytes.Buffer
	if err := sweep.EncodeFile(&buf, formatLeaseManifest,
		&LeaseManifest{Experiment: "E6", Config: other}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(manifestKey(LeaseRunPrefix(e, cfg)), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := RunLeasedSweeps(context.Background(), e, cfg, st,
		sweep.LeaseOptions{Worker: "b", GrainsPerSize: 2}); err == nil {
		t.Fatal("foreign manifest: want error")
	}
	// A different config addresses a different namespace: merging it finds
	// nothing rather than mixing runs.
	if _, err := MergeLeased(e, other, st); err == nil {
		t.Fatal("merge of an absent run: want error")
	}
}

// TestShardMergeTablesByteIdentical: for E2, E6 and the exhaustive E10, m
// static lease shards (each with its own worker pool size) merge to the
// single-process table, for m in {1, 2, 4}.
func TestShardMergeTablesByteIdentical(t *testing.T) {
	cases := []struct {
		id  string
		cfg Config
	}{
		{"E2", Config{Seed: 7, Sizes: []int{16, 32, 64}, Trials: 6}},
		{"E6", Config{Seed: 11, Sizes: []int{16, 33}, Trials: 9}},
		{"E10", Config{Seed: 3, Sizes: []int{5, 6}, Trials: 60}},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			e, err := Get(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 2, 4} {
				st := sweep.NewMemStore()
				for i := 0; i < m; i++ {
					cfg := tc.cfg
					cfg.Workers = 1 + i%3
					opts := sweep.LeaseOptions{Worker: fmt.Sprintf("s%d", i), GrainsPerSize: 4,
						Static: sweep.Shard{Index: i, Count: m}}
					if _, err := RunLeasedSweeps(context.Background(), e, cfg, st, opts); err != nil {
						t.Fatalf("m=%d shard %d: %v", m, i, err)
					}
				}
				got, err := MergeLeased(e, tc.cfg, st)
				if err != nil {
					t.Fatalf("m=%d: %v", m, err)
				}
				if want.Render() != got.Render() {
					t.Errorf("m=%d: merged table differs from single process\nwant:\n%s\ngot:\n%s",
						m, want.Render(), got.Render())
				}
			}
		})
	}
}
