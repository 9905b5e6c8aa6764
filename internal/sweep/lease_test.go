package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// runLeasedAll drives workers cooperating executors of spec over st until
// the run completes, returning their summed stats and the collected result.
func runLeasedAll(t *testing.T, spec Spec, st Store, workers int, optsOf func(i int) LeaseOptions) (LeaseStats, *Result) {
	t.Helper()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total LeaseStats
	)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := optsOf(i)
			stats, err := RunLeased(context.Background(), spec, st, opts)
			errs[i] = err
			mu.Lock()
			total.Add(stats)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	prefix := optsOf(0).Prefix
	if prefix == "" {
		prefix = "leaserun"
	}
	got, err := CollectLeased(st, prefix, mustPlanOf(spec))
	if err != nil {
		t.Fatalf("CollectLeased: %v", err)
	}
	return total, got
}

// A single leased executor must reproduce the uninterrupted engine bytes,
// sampled and exhaustive alike.
func TestLeasedSingleWorkerIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"sampled", cycleSpec(42, []int{8, 13, 21}, 15, 2)},
		{"exhaustive", exhaustiveSpec([]int{4, 5}, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			st := NewMemStore()
			stats, got := runLeasedAll(t, tc.spec, st, 1, func(int) LeaseOptions {
				return LeaseOptions{Worker: "solo", GrainsPerSize: 4}
			})
			if !reflect.DeepEqual(want, got) {
				t.Errorf("leased aggregates differ from direct run\nwant: %+v\ngot:  %+v", want, got)
			}
			if stats.Grains == 0 || stats.Claims == 0 {
				t.Errorf("solo worker did no work: %+v", stats)
			}
		})
	}
}

// Concurrent unequal-speed executors over one store must still merge to
// the single-process bytes, whatever interleaving the scheduler picks.
func TestLeasedConcurrentWorkersIdentical(t *testing.T) {
	spec := cycleSpec(7, []int{8, 12, 17}, 24, 2)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	delays := []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond}
	stats, got := runLeasedAll(t, spec, st, 3, func(i int) LeaseOptions {
		return LeaseOptions{
			Worker:        fmt.Sprintf("w%d", i),
			GrainsPerSize: 6,
			Poll:          time.Millisecond,
			Throttle:      func(Block) { time.Sleep(delays[i]) },
		}
	})
	if !reflect.DeepEqual(want, got) {
		t.Errorf("leased aggregates differ from direct run\nwant: %+v\ngot:  %+v", want, got)
	}
	if stats.Claims == 0 {
		t.Errorf("no claims recorded: %+v", stats)
	}
}

// Static leases are the degenerate i-of-m schedule: m executors, run even
// sequentially (no one to steal from), tile the grain set exactly once and
// collect to the uninterrupted bytes.
func TestLeasedStaticScheduleIdentical(t *testing.T) {
	spec := cycleSpec(11, []int{9, 14}, 22, 2)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	const m = 3
	st := NewMemStore()
	var total LeaseStats
	for i := 0; i < m; i++ {
		stats, err := RunLeased(context.Background(), spec, st, LeaseOptions{
			Worker:        fmt.Sprintf("static%d", i),
			GrainsPerSize: 5,
			Static:        Shard{Index: i, Count: m},
		})
		if err != nil {
			t.Fatalf("static worker %d: %v", i, err)
		}
		total.Add(stats)
	}
	if total.Steals != 0 || total.Speculated != 0 {
		t.Errorf("static schedule stole or speculated: %+v", total)
	}
	got, err := CollectLeased(st, "leaserun", mustPlanOf(spec))
	if err != nil {
		t.Fatalf("CollectLeased: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("static leased aggregates differ from direct run\nwant: %+v\ngot:  %+v", want, got)
	}
}

// staticLeased runs spec as m static lease executors over one store, one
// after another with their own worker pool sizes, and collects the run.
// Static leases are the degenerate i-of-m schedule: run sequentially
// (no one to steal from) they must tile the grain set exactly once, and
// never steal or speculate.
func staticLeased(t *testing.T, spec Spec, m int, workersOf func(i int) int) *Result {
	t.Helper()
	st := NewMemStore()
	for i := 0; i < m; i++ {
		s := spec
		s.Workers = workersOf(i)
		opts := LeaseOptions{Worker: fmt.Sprintf("static%d", i), GrainsPerSize: 4, Static: Shard{Index: i, Count: m}}
		stats, err := RunLeased(context.Background(), s, st, opts)
		if err != nil {
			t.Fatalf("static shard %d/%d: %v", i, m, err)
		}
		if stats.Steals != 0 || stats.Speculated != 0 {
			t.Errorf("static shard %d/%d stole or speculated: %+v", i, m, stats)
		}
	}
	got, err := CollectLeased(st, "leaserun", mustPlanOf(spec))
	if err != nil {
		t.Fatalf("collect %d static shards: %v", m, err)
	}
	return got
}

// TestShardMergeIdenticalSampled: m static shards collect to the bytes of
// a single sampled run, for m in {1, 2, 4}, across per-shard worker counts.
func TestShardMergeIdenticalSampled(t *testing.T) {
	spec := cycleSpec(42, []int{16, 33, 64}, 9, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 4} {
		if got := staticLeased(t, spec, m, func(i int) int { return 1 + i%3 }); !reflect.DeepEqual(want, got) {
			t.Errorf("m=%d: static shards diverge from single process\nwant: %+v\ngot:  %+v", m, want, got)
		}
	}
}

// TestShardMergeIdenticalExhaustive: the same guarantee for full n!
// enumeration — rank blocks split across static shards like trials do.
func TestShardMergeIdenticalExhaustive(t *testing.T) {
	spec := exhaustiveSpec([]int{5, 6}, 2)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 4} {
		if got := staticLeased(t, spec, m, func(i int) int { return 1 + i }); !reflect.DeepEqual(want, got) {
			t.Errorf("m=%d: exhaustive static shards diverge from single process", m)
		}
	}
}

// TestShardMergeMoreShardsThanTrials: degenerate slicing — more shards
// than trials leaves some shards empty; they exit at once and the collect
// is still exact.
func TestShardMergeMoreShardsThanTrials(t *testing.T) {
	spec := cycleSpec(3, []int{8}, 2, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := staticLeased(t, spec, 5, func(int) int { return 2 }); !reflect.DeepEqual(want, got) {
		t.Errorf("empty-shard collect diverges:\nwant %+v\ngot  %+v", want, got)
	}
}

// A worker killed mid-run loses nothing: a fresh worker resumes from the
// store's completion records — the run's checkpoint — executing exactly
// the grains they leave uncovered, and the final merge is byte-identical.
func TestLeasedResumeAfterKill(t *testing.T) {
	const trials, grains = 18, 6
	spec := cycleSpec(3, []int{8, 11}, trials, 2)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	started := 0
	_, err = RunLeased(ctx, spec, st, LeaseOptions{
		Worker:        "victim",
		GrainsPerSize: grains,
		Throttle: func(Block) {
			if started++; started == 3 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run: want error")
	}
	if _, err := CollectLeased(st, "leaserun", mustPlanOf(spec)); err == nil {
		t.Fatal("collect of a half-dead run: want IncompleteError")
	}
	names, err := st.List("leaserun/done/")
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[string]bool, len(names))
	for _, name := range names {
		done[name] = true
	}
	var uncovered []Block
	g := grainSize(trials, grains)
	for i := range spec.Sizes {
		for t0 := 0; t0 < trials; t0 += g {
			b := Block{SizeIdx: i, T0: t0, T1: min(t0+g, trials)}
			if !done[completionKey("leaserun", b)] {
				uncovered = append(uncovered, b)
			}
		}
	}
	if len(done) == 0 || len(uncovered) == 0 {
		t.Fatalf("victim covered %d grains, left %d: the kill must land mid-run", len(done), len(uncovered))
	}

	var ran []Block
	stats, err := RunLeased(context.Background(), spec, st, LeaseOptions{
		Worker:        "rescuer",
		GrainsPerSize: grains,
		Throttle:      func(b Block) { ran = append(ran, b) },
	})
	if err != nil {
		t.Fatalf("rescuer: %v", err)
	}
	sort.Slice(ran, func(a, b int) bool {
		if ran[a].SizeIdx != ran[b].SizeIdx {
			return ran[a].SizeIdx < ran[b].SizeIdx
		}
		return ran[a].T0 < ran[b].T0
	})
	if !reflect.DeepEqual(ran, uncovered) || stats.Grains != len(uncovered) || stats.Duplicates != 0 {
		t.Errorf("rescuer ran %v (%+v), want exactly the uncovered grains %v", ran, stats, uncovered)
	}
	got, err := CollectLeased(st, "leaserun", mustPlanOf(spec))
	if err != nil {
		t.Fatalf("CollectLeased: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed aggregates differ from direct run\nwant: %+v\ngot:  %+v", want, got)
	}
}

// RunLeased owns the schedule: specs or options that fight it are rejected
// up front.
func TestRunLeasedValidation(t *testing.T) {
	base := cycleSpec(1, []int{6}, 4, 1)
	st := NewMemStore()
	cases := []struct {
		name string
		spec Spec
		st   Store
		opts LeaseOptions
	}{
		{"nil store", base, nil, LeaseOptions{Worker: "w"}},
		{"missing worker", base, st, LeaseOptions{}},
		{"bad worker name", base, st, LeaseOptions{Worker: "a/b c"}},
		{"bad prefix", base, st, LeaseOptions{Worker: "w", Prefix: "../up"}},
		{"bad static shard", base, st, LeaseOptions{Worker: "w", Static: Shard{Index: 3, Count: 2}}},
		{"spec done set", func() Spec { s := base; s.Done = [][]TrialRange{{{T0: 0, T1: 1}}}; return s }(), st, LeaseOptions{Worker: "w"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunLeased(context.Background(), tc.spec, tc.st, tc.opts); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// Executors must agree on the run identity: a second worker presenting a
// different plan or grain schedule is turned away.
func TestLeaseRunIdentityMismatch(t *testing.T) {
	spec := cycleSpec(5, []int{6}, 8, 1)
	st := NewMemStore()
	if _, err := RunLeased(context.Background(), spec, st, LeaseOptions{Worker: "a", GrainsPerSize: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunLeased(context.Background(), spec, st, LeaseOptions{Worker: "b", GrainsPerSize: 8}); err == nil {
		t.Fatal("grain schedule mismatch: want error")
	}
	other := cycleSpec(6, []int{6}, 8, 1)
	if _, err := RunLeased(context.Background(), other, st, LeaseOptions{Worker: "c", GrainsPerSize: 4}); err == nil {
		t.Fatal("plan mismatch: want error")
	}
	if _, err := CollectLeased(st, "leaserun", mustPlanOf(other)); err == nil {
		t.Fatal("collect with foreign plan: want error")
	}
}

// CollectLeased is strict: a missing grain is a typed IncompleteError
// naming the gap, an overlapping record a typed OverlapError.
func TestCollectLeasedTypedErrors(t *testing.T) {
	spec := cycleSpec(9, []int{7}, 16, 1)
	st := NewMemStore()
	if _, err := RunLeased(context.Background(), spec, st, LeaseOptions{Worker: "w", GrainsPerSize: 4}); err != nil {
		t.Fatal(err)
	}
	plan := mustPlanOf(spec)

	// Tear a hole: grain [4,8) vanishes.
	if err := st.Delete("leaserun/done/0-4"); err != nil {
		t.Fatal(err)
	}
	var inc *IncompleteError
	_, err := CollectLeased(st, "leaserun", plan)
	if !errors.As(err, &inc) {
		t.Fatalf("gap: want *IncompleteError, got %v", err)
	}
	if inc.N != 7 || !reflect.DeepEqual(inc.Missing, []TrialRange{{T0: 4, T1: 8}}) {
		t.Fatalf("IncompleteError = %+v", inc)
	}

	// Refill the hole with a record that overlaps its neighbour: [4,9)
	// collides with [8,12). Internally valid, so only the merge can
	// reject it.
	forged := &Completion{
		PlanSum: planSum(plan),
		Worker:  "forger",
		Block:   Block{SizeIdx: 0, T0: 4, T1: 9},
		Stats:   SizeStats{N: 7, Trials: 5},
	}
	var buf bytes.Buffer
	if err := EncodeCompletion(&buf, forged); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("leaserun/done/0-4", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var ov *OverlapError
	_, err = CollectLeased(st, "leaserun", plan)
	if !errors.As(err, &ov) {
		t.Fatalf("overlap: want *OverlapError, got %v", err)
	}
	if ov.N != 7 {
		t.Fatalf("OverlapError = %+v", ov)
	}
	if !strings.Contains(ov.Error(), "double-count") {
		t.Fatalf("OverlapError message %q should explain the double-count", ov.Error())
	}
}

// Torn completion records are "absent", not fatal: the scan skips them,
// executors re-run and overwrite them, and the final bytes are unharmed.
func TestLeasedTornWritesRecovered(t *testing.T) {
	spec := cycleSpec(13, []int{8, 10}, 20, 2)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	var mu sync.Mutex
	torn := 0
	st.FaultPuts(func(name string, data []byte) ([]byte, error) {
		if !strings.Contains(name, "/done/") {
			return data, nil
		}
		mu.Lock()
		defer mu.Unlock()
		// Tear every third completion write once; the executor's retry and
		// later re-executions heal each one.
		if torn++; torn%3 == 0 {
			return data[:len(data)/2], errors.New("torn write")
		}
		return data, nil
	})
	stats, got := runLeasedAll(t, spec, st, 2, func(i int) LeaseOptions {
		return LeaseOptions{Worker: fmt.Sprintf("w%d", i), GrainsPerSize: 5, Poll: time.Millisecond}
	})
	if !reflect.DeepEqual(want, got) {
		t.Errorf("aggregates differ after torn writes\nwant: %+v\ngot:  %+v", want, got)
	}
	if stats.Grains == 0 {
		t.Errorf("no grains executed: %+v", stats)
	}
}

// Lease and completion codecs reject forged structure with typed errors
// and round-trip valid records exactly.
func TestLeaseCodecValidation(t *testing.T) {
	l := &Lease{PlanSum: 99, Worker: "w1", SizeIdx: 1, T0: 4, T1: 12, Next: 8, Beat: 3, Seq: 2}
	var buf bytes.Buffer
	if err := EncodeLease(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLease(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, got) {
		t.Fatalf("lease round-trip = %+v, want %+v", got, l)
	}
	badLeases := []Lease{
		{PlanSum: 1, Worker: "", T0: 0, T1: 4, Next: 0},
		{PlanSum: 1, Worker: "w", SizeIdx: -1, T0: 0, T1: 4, Next: 0},
		{PlanSum: 1, Worker: "w", T0: 4, T1: 4, Next: 4},
		{PlanSum: 1, Worker: "w", T0: -1, T1: 4, Next: 0},
		{PlanSum: 1, Worker: "w", T0: 0, T1: 4, Next: 5},
		{PlanSum: 1, Worker: "w", T0: 2, T1: 4, Next: 1},
		{PlanSum: 1, Worker: "w", T0: 0, T1: 4, Next: 0, Beat: -1},
	}
	for i, bad := range badLeases {
		buf.Reset()
		if err := EncodeLease(&buf, &bad); err != nil {
			t.Fatal(err)
		}
		var de *DecodeError
		if _, err := DecodeLease(bytes.NewReader(buf.Bytes())); !errors.As(err, &de) {
			t.Errorf("bad lease %d: want *DecodeError, got %v", i, err)
		}
	}

	c := &Completion{PlanSum: 7, Worker: "w", Block: Block{SizeIdx: 0, T0: 4, T1: 8},
		Stats: SizeStats{N: 5, Trials: 4}}
	buf.Reset()
	if err := EncodeCompletion(&buf, c); err != nil {
		t.Fatal(err)
	}
	gotC, err := DecodeCompletion(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, gotC) {
		t.Fatalf("completion round-trip = %+v, want %+v", gotC, c)
	}
	badComps := []Completion{
		{Block: Block{SizeIdx: -1, T0: 0, T1: 4}, Stats: SizeStats{N: 5, Trials: 4}},
		{Block: Block{SizeIdx: 0, T0: 4, T1: 4}, Stats: SizeStats{N: 5, Trials: 0}},
		{Block: Block{SizeIdx: 0, T0: 0, T1: 4}, Stats: SizeStats{N: 0, Trials: 4}},
		{Block: Block{SizeIdx: 0, T0: 0, T1: 4}, Stats: SizeStats{N: 5, Trials: 3}},
		{Block: Block{SizeIdx: 0, T0: 0, T1: 4}, Stats: SizeStats{N: 5, Trials: 4, Failures: 9}},
	}
	for i, bad := range badComps {
		buf.Reset()
		if err := EncodeCompletion(&buf, &bad); err != nil {
			t.Fatal(err)
		}
		var de *DecodeError
		if _, err := DecodeCompletion(bytes.NewReader(buf.Bytes())); !errors.As(err, &de) {
			t.Errorf("bad completion %d: want *DecodeError, got %v", i, err)
		}
	}
}

// TestInsertRangeCoalesces pins the done-range bookkeeping.
func TestInsertRangeCoalesces(t *testing.T) {
	var rs []TrialRange
	for _, r := range []TrialRange{{4, 6}, {0, 2}, {6, 8}, {2, 4}} {
		rs = insertRange(rs, r)
	}
	if want := []TrialRange{{0, 8}}; !reflect.DeepEqual(rs, want) {
		t.Fatalf("coalesced ranges %v, want %v", rs, want)
	}
	rs = insertRange(nil, TrialRange{10, 12})
	rs = insertRange(rs, TrialRange{0, 2})
	rs = insertRange(rs, TrialRange{20, 22})
	if want := []TrialRange{{0, 2}, {10, 12}, {20, 22}}; !reflect.DeepEqual(rs, want) {
		t.Fatalf("disjoint ranges %v, want %v", rs, want)
	}
	rs = insertRange(rs, TrialRange{2, 10})
	if want := []TrialRange{{0, 12}, {20, 22}}; !reflect.DeepEqual(rs, want) {
		t.Fatalf("bridged ranges %v, want %v", rs, want)
	}
}

func TestGrainHelpers(t *testing.T) {
	cases := []struct{ count, grains, want int }{
		{20, 16, 2}, {16, 16, 1}, {1, 16, 1}, {100, 16, 7}, {5, 100, 1},
	}
	for _, tc := range cases {
		if got := grainSize(tc.count, tc.grains); got != tc.want {
			t.Errorf("grainSize(%d,%d) = %d, want %d", tc.count, tc.grains, got, tc.want)
		}
	}
	aligns := []struct{ t, g, want int }{
		{0, 4, 0}, {1, 4, 4}, {4, 4, 4}, {5, 4, 8}, {7, 3, 9},
	}
	for _, tc := range aligns {
		if got := alignUp(tc.t, tc.g); got != tc.want {
			t.Errorf("alignUp(%d,%d) = %d, want %d", tc.t, tc.g, got, tc.want)
		}
	}
}

// A store fault mid-run — here the DirStore root vanishing under the
// executor — must surface from RunLeased as a typed *WorkerError carrying
// the executor's id, still unwrapping to the store's cause, so a caller
// knows which executor died while errors.Is keeps working.
func TestLeasedStoreFaultSurfacesWorkerError(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	st, err := NewDirStore(root)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	spec := cycleSpec(3, []int{8}, 12, 1)
	opts := LeaseOptions{
		Worker: "doomed", GrainsPerSize: 4, Poll: time.Millisecond,
		Throttle: func(Block) { os.RemoveAll(root) },
	}
	_, err = RunLeased(context.Background(), spec, st, opts)
	if err == nil {
		t.Fatal("RunLeased survived its store's deletion")
	}
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want a *WorkerError in the chain", err)
	}
	if we.Worker != "doomed" {
		t.Fatalf("WorkerError.Worker = %q, want %q", we.Worker, "doomed")
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err chain %v does not unwrap to fs.ErrNotExist", err)
	}
}

// The lease-scan progress snapshot must track coverage from empty through
// complete without joining the run, and count live claims.
func TestLeaseProgressSnapshot(t *testing.T) {
	spec := cycleSpec(11, []int{6, 9}, 8, 1)
	plan := mustPlanOf(spec)
	st := NewMemStore()
	p, err := LeaseProgress(st, "leaserun", plan)
	if err != nil {
		t.Fatalf("LeaseProgress on empty store: %v", err)
	}
	if p.Covered() != 0 || p.Total() != 16 || p.Complete() || p.Workers != 0 {
		t.Fatalf("empty-store progress = %+v", p)
	}
	if _, err := RunLeased(context.Background(), spec, st, LeaseOptions{Worker: "solo", GrainsPerSize: 4}); err != nil {
		t.Fatalf("RunLeased: %v", err)
	}
	p, err = LeaseProgress(st, "leaserun", plan)
	if err != nil {
		t.Fatalf("LeaseProgress: %v", err)
	}
	if !p.Complete() || p.Covered() != 16 {
		t.Fatalf("post-run progress = %+v, want complete 16/16", p)
	}
	for i, want := range []int{6, 9} {
		if p.Sizes[i].N != want || p.Sizes[i].Done != 8 || p.Sizes[i].Total != 8 {
			t.Fatalf("size %d progress = %+v", i, p.Sizes[i])
		}
	}
}

// One predicate decides which store faults the lease loop backs off on;
// pin its verdicts for every error class a DirStore or MemStore returns.
func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"cancellation", context.Canceled, false},
		{"deadline", fmt.Errorf("scan: %w", context.DeadlineExceeded), false},
		{"vanished root", fmt.Errorf("sweep: store put: %w", fs.ErrNotExist), false},
		{"read-only root", fmt.Errorf("sweep: store put: %w", fs.ErrPermission), false},
		{"corrupt record", &DecodeError{Format: FormatLease, Reason: "garbage"}, false},
		{"unclassified media fault", errors.New("crashed mid-write"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := isRetryable(tc.err); got != tc.want {
				t.Errorf("isRetryable(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// A scan fault that is final (vanished root) must kill the executor on
// its first occurrence instead of burning the whole retry budget; only
// transient faults are worth the backed-off rescans.
func TestLeaseScanFinalFaultFailsFast(t *testing.T) {
	st := NewMemStore()
	spec := cycleSpec(3, []int{8}, 4, 1)
	faults := 0
	fs1 := &faultingStore{Store: st, onList: func(prefix string) error {
		faults++
		return fmt.Errorf("sweep: store list: %w", fs.ErrNotExist)
	}}
	_, err := RunLeased(context.Background(), spec, fs1, LeaseOptions{
		Worker: "w", StoreRetries: 5, Poll: 1,
	})
	if err == nil || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("RunLeased over vanished store = %v, want fs.ErrNotExist", err)
	}
	if faults != 1 {
		t.Errorf("final fault was retried %d times; isRetryable should stop the loop at 1", faults)
	}
}

// faultingStore lets a test fail specific operations of a real store.
type faultingStore struct {
	Store
	onList func(prefix string) error
}

func (s *faultingStore) List(prefix string) ([]string, error) {
	if s.onList != nil {
		if err := s.onList(prefix); err != nil {
			return nil, err
		}
	}
	return s.Store.List(prefix)
}
