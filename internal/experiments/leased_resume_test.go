package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/sweep"
)

// A leased run's completion records are its checkpoint and its shard
// outputs at once: these tests pin kill+resume, run identity and the
// merge's refusal of records that do not belong in the table.

// leaseE6 runs E6 under cfg to completion as one executor over st.
func leaseE6(t *testing.T, st sweep.Store, cfg Config, grains int) sweep.LeaseStats {
	t.Helper()
	e, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunLeasedSweeps(context.Background(), e, cfg, st, sweep.LeaseOptions{Worker: "solo", GrainsPerSize: grains})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// mustRender runs e under cfg in one process and renders its table.
func mustRender(t *testing.T, e Experiment, cfg Config) string {
	t.Helper()
	tab, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab.Render()
}

// TestCheckpointResumeTableIdentical is the kill+resume acceptance at the
// table level: interrupt a leased E6 run mid-sweep, reopen its store
// directory with a fresh context, run the rest, and demand the
// uninterrupted bytes.
func TestCheckpointResumeTableIdentical(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 5, Sizes: []int{16, 24}, Trials: 400, Workers: 2}
	want := mustRender(t, e6, cfg)

	root := filepath.Join(t.TempDir(), "store")
	st, err := sweep.NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	if _, err := RunLeasedSweeps(ctx, e6, cfg, st, sweep.LeaseOptions{
		Worker:        "victim",
		GrainsPerSize: 8,
		Throttle: func(sweep.Block) {
			if started++; started == 3 {
				cancel()
			}
		},
	}); err == nil {
		t.Fatal("phase 1 finished despite the kill; cannot exercise resume")
	}
	if _, err := MergeLeased(e6, cfg, st); err == nil {
		t.Fatal("merge of a killed run: want an incomplete-run error")
	}

	resumed, err := sweep.NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLeasedSweeps(context.Background(), e6, cfg, resumed,
		sweep.LeaseOptions{Worker: "rescuer", GrainsPerSize: 8}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := MergeLeased(e6, cfg, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want {
		t.Errorf("resumed table differs from uninterrupted run\nwant:\n%s\ngot:\n%s", want, got.Render())
	}
}

// TestCheckpointRejectsForeignRun: a store's records resume only the run
// that wrote them. Another seed or another experiment lands in its own
// namespace and renders its own table; workers and backend are
// normalised away, so they resume the interrupted run.
func TestCheckpointRejectsForeignRun(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Get("E2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 5, Sizes: []int{16}, Trials: 8}
	st := sweep.NewMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	if _, err := RunLeasedSweeps(ctx, e6, cfg, st, sweep.LeaseOptions{
		Worker:        "victim",
		GrainsPerSize: 4,
		Throttle: func(sweep.Block) {
			if started++; started == 2 {
				cancel()
			}
		},
	}); err == nil {
		t.Fatal("phase 1 finished despite the kill")
	}

	otherSeed := cfg
	otherSeed.Seed = 99
	leaseE6(t, st, otherSeed, 4)
	got, err := MergeLeased(e6, otherSeed, st)
	if err != nil {
		t.Fatalf("seed 99 run: %v", err)
	}
	if got.Render() != mustRender(t, e6, otherSeed) {
		t.Error("a run under another seed picked up the interrupted run's records")
	}
	if _, err := RunLeasedSweeps(context.Background(), e2, cfg, st,
		sweep.LeaseOptions{Worker: "e2", GrainsPerSize: 2}); err != nil {
		t.Fatalf("E2 run: %v", err)
	}
	got, err = MergeLeased(e2, cfg, st)
	if err != nil {
		t.Fatalf("E2 merge: %v", err)
	}
	if got.Render() != mustRender(t, e2, cfg) {
		t.Error("another experiment picked up the interrupted run's records")
	}

	relaxed := cfg
	relaxed.Workers = 7
	relaxed.NoKernels = true
	if LeaseRunPrefix(e6, relaxed) != LeaseRunPrefix(e6, cfg) {
		t.Fatal("perf-only config drift moved the run to another namespace")
	}
	stats, err := RunLeasedSweeps(context.Background(), e6, relaxed, st,
		sweep.LeaseOptions{Worker: "rescuer", GrainsPerSize: 4})
	if err != nil {
		t.Fatalf("perf-only config drift rejected the run: %v", err)
	}
	full := leaseE6(t, sweep.NewMemStore(), cfg, 4)
	if stats.Grains >= full.Grains {
		t.Errorf("rescuer ran %d grains; the interrupted run's records were not reused", stats.Grains)
	}
	got, err = MergeLeased(e6, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != mustRender(t, e6, cfg) {
		t.Error("resumed table differs from uninterrupted run")
	}
}

// TestCheckpointFailureAbortsPromptly: a run whose store cannot be written
// must fail before executing any trial, not run the whole sweep first.
func TestCheckpointFailureAbortsPromptly(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 8, Sizes: []int{64}, Trials: 50000, Workers: 2}
	var observed atomic.Int32
	counting := e6
	counting.Sweeps = func(cfg Config) ([]sweep.Spec, error) {
		specs, err := e6.Sweeps(cfg)
		if err != nil {
			return nil, err
		}
		for k := range specs {
			specs[k].Observe = func(int, int, graph.Graph, ids.Assignment, *local.Result) {
				observed.Add(1)
			}
		}
		return specs, nil
	}
	st := sweep.NewMemStore()
	st.FaultPuts(func(string, []byte) ([]byte, error) {
		return nil, fs.ErrPermission
	})
	_, err = RunLeasedSweeps(context.Background(), counting, cfg, st, sweep.LeaseOptions{Worker: "w"})
	if err == nil {
		t.Fatal("read-only store accepted")
	}
	if !errors.Is(err, fs.ErrPermission) {
		t.Errorf("error %v does not unwrap to the store's fault", err)
	}
	if !strings.Contains(err.Error(), "manifest") {
		t.Errorf("error %v does not name the manifest write", err)
	}
	if n := observed.Load(); n != 0 {
		t.Errorf("sweep ran %d trials despite an unwritable store", n)
	}
}

// TestCheckpointRejectsForgedFile: records planted in a store before a run
// — torn, forged or invariant-violating — are never trusted as completed
// work. Executors re-run those grains and the table is unharmed.
func TestCheckpointRejectsForgedFile(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 5, Sizes: []int{16}, Trials: 8}
	clean := leaseE6(t, sweep.NewMemStore(), cfg, 2)

	st := sweep.NewMemStore()
	done := LeaseRunPrefix(e6, cfg) + "/s0/done/"
	forged := map[string]string{
		"0-0": `{"format":"sweep.completion","version":3,"payload":{"block":{"size":0,"t0":0,"t1":4},"stats":null}}`,
		"0-4": `{"format":"sweep.completion","version":3,"payload":{"block":{"size":0,"t0":4,"t1":8},"stats":{"n":16,"trials":-3}}}`,
		"0-2": `{"format":"sweep.completion","version":3,"payl`,
	}
	for name, data := range forged {
		if err := st.Put(done+name, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	stats := leaseE6(t, st, cfg, 2)
	if stats.Grains != clean.Grains {
		t.Errorf("run over forged records executed %d grains, a clean run %d", stats.Grains, clean.Grains)
	}
	got, err := MergeLeased(e6, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != mustRender(t, e6, cfg) {
		t.Error("forged records leaked into the table")
	}
}

// TestMergeShardsValidation pins MergeLeased's refusal cases: a store
// holding no run, one static shard of two, another config — and accepts
// the complete shard set.
func TestMergeShardsValidation(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 2, Sizes: []int{16}, Trials: 4}
	st := sweep.NewMemStore()
	var inc *sweep.IncompleteError
	if _, err := MergeLeased(e6, cfg, st); !errors.As(err, &inc) {
		t.Errorf("merge of an empty store: want *sweep.IncompleteError, got %v", err)
	}
	shard := func(i int) {
		t.Helper()
		if _, err := RunLeasedSweeps(context.Background(), e6, cfg, st, sweep.LeaseOptions{
			Worker: fmt.Sprintf("s%d", i), GrainsPerSize: 4, Static: sweep.Shard{Index: i, Count: 2},
		}); err != nil {
			t.Fatalf("shard %d/2: %v", i, err)
		}
	}
	shard(0)
	if _, err := MergeLeased(e6, cfg, st); !errors.As(err, &inc) {
		t.Errorf("merge of one shard of two: want *sweep.IncompleteError, got %v", err)
	}
	shard(1)
	drift := cfg
	drift.Seed = 3
	if _, err := MergeLeased(e6, drift, st); err == nil {
		t.Error("merge under another seed accepted")
	}
	got, err := MergeLeased(e6, cfg, st)
	if err != nil {
		t.Fatalf("complete shard set rejected: %v", err)
	}
	if got.Render() != mustRender(t, e6, cfg) {
		t.Error("merged shard set differs from single process")
	}
}

// replaceCompletion rewrites one of a finished E6 run's completion records
// through edit, leaving it encoded with the run's own plan checksum.
func replaceCompletion(t *testing.T, st sweep.Store, key string, edit func(c *sweep.Completion)) {
	t.Helper()
	data, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sweep.DecodeCompletion(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	edit(c)
	var buf bytes.Buffer
	if err := sweep.EncodeCompletion(&buf, c); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestMergeShardsRejectsTruncatedTrials: a record whose aggregate counts
// fewer trials than the block it claims — or whose block was shortened to
// match — must be refused, not averaged into a silently wrong table.
func TestMergeShardsRejectsTruncatedTrials(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 2, Sizes: []int{16}, Trials: 4}
	key := LeaseRunPrefix(e6, cfg) + "/s0/done/0-2"
	for name, edit := range map[string]func(c *sweep.Completion){
		"aggregate": func(c *sweep.Completion) { c.Stats.Trials = 1 },
		"block":     func(c *sweep.Completion) { c.Block.T1--; c.Stats.Trials-- },
	} {
		st := sweep.NewMemStore()
		leaseE6(t, st, cfg, 2)
		replaceCompletion(t, st, key, edit)
		var inc *sweep.IncompleteError
		if _, err := MergeLeased(e6, cfg, st); !errors.As(err, &inc) {
			t.Errorf("%s truncated: want *sweep.IncompleteError, got %v", name, err)
		}
	}
}

// TestMergeShardsRejectsWrongShape: records whose aggregates do not match
// the experiment's own sweep plan (size index, n) are refused with an
// error instead of reaching Tabulate.
func TestMergeShardsRejectsWrongShape(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 2, Sizes: []int{16}, Trials: 4}
	key := LeaseRunPrefix(e6, cfg) + "/s0/done/0-0"
	for name, edit := range map[string]func(c *sweep.Completion){
		"extra size":    func(c *sweep.Completion) { c.Block.SizeIdx = 1 },
		"mismatched n":  func(c *sweep.Completion) { c.Stats.N = 99 },
		"foreign plan":  func(c *sweep.Completion) { c.PlanSum++ },
		"quotient mass": func(c *sweep.Completion) { c.Weight = 2 },
	} {
		st := sweep.NewMemStore()
		leaseE6(t, st, cfg, 2)
		replaceCompletion(t, st, key, edit)
		if _, err := MergeLeased(e6, cfg, st); err == nil {
			t.Errorf("record with %s accepted", name)
		}
	}
}

// TestReadShardFileRejectsForgedPayloads regresses the panic paths: nil
// aggregates and invariant-violating stats in a stored record fail with
// the codec's typed error and read as a gap, never reach a merge.
func TestReadShardFileRejectsForgedPayloads(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 1, Sizes: []int{16}, Trials: 4}
	key := LeaseRunPrefix(e6, cfg) + "/s0/done/0-2"
	forged := []string{
		`{"format":"sweep.completion","version":3,"payload":{"block":{"size":0,"t0":2,"t1":4},"stats":null}}`,
		`{"format":"sweep.completion","version":3,"payload":{"block":{"size":0,"t0":2,"t1":4},"stats":{"n":16,"trials":-5}}}`,
	}
	for i, input := range forged {
		var de *sweep.DecodeError
		if _, err := sweep.DecodeCompletion(strings.NewReader(input)); !errors.As(err, &de) {
			t.Errorf("forged payload %d: want *sweep.DecodeError, got %v", i, err)
		}
		st := sweep.NewMemStore()
		leaseE6(t, st, cfg, 2)
		if err := st.Put(key, []byte(input)); err != nil {
			t.Fatal(err)
		}
		var inc *sweep.IncompleteError
		if _, err := MergeLeased(e6, cfg, st); !errors.As(err, &inc) {
			t.Errorf("forged payload %d: want *sweep.IncompleteError, got %v", i, err)
		}
	}
}
