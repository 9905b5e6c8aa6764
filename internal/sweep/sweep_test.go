package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/measure"
	"repro/internal/problems"
)

func cycleSpec(seed int64, sizes []int, trials, workers int) Spec {
	return Spec{
		Seed:    seed,
		Sizes:   sizes,
		Trials:  trials,
		Workers: workers,
		Graph:   func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) },
		Alg:     func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} },
		Verify: func(g graph.Graph, a ids.Assignment, res *local.Result) error {
			return problems.LargestID{}.Verify(g, a, res.Outputs)
		},
	}
}

// TestDeterministicAcrossWorkerCounts is the sweep's core guarantee: the
// same seed produces byte-identical aggregates — integer totals, float
// means, extremal-trial summaries, pooled histograms — at any worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	base, err := Run(context.Background(), cycleSpec(42, []int{16, 33, 64}, 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := Run(context.Background(), cycleSpec(42, []int{16, 33, 64}, 9, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: aggregates differ from sequential run\nseq: %+v\ngot: %+v", workers, base, got)
		}
	}
}

// TestMatchesSequentialLoop cross-checks the streaming aggregation against
// the naive loop the experiments used to hand-roll: same seeds, same graph,
// same per-trial executions, summaries folded with measure.Summarize.
func TestMatchesSequentialLoop(t *testing.T) {
	const (
		seed   = 7
		trials = 6
	)
	sizes := []int{12, 27}
	res, err := Run(context.Background(), cycleSpec(seed, sizes, trials, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		c := graph.MustCycle(n)
		var worstBySum, worstByMax measure.Summary
		var totalSum, totalMax int64
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(TrialSeed(seed, i, trial)))
			r, err := local.RunView(c, ids.Random(n, rng), largestid.Pruning{})
			if err != nil {
				t.Fatal(err)
			}
			s := measure.Summarize(r.Radii)
			totalSum += int64(s.Sum)
			totalMax += int64(s.Max)
			if trial == 0 || s.Sum > worstBySum.Sum {
				worstBySum = s
			}
			if trial == 0 || s.Max > worstByMax.Max {
				worstByMax = s
			}
		}
		st := &res.Sizes[i]
		if st.Trials != trials || st.TotalSum != totalSum || st.TotalMax != totalMax {
			t.Errorf("n=%d: totals diverge: %+v want sum=%d max=%d", n, st, totalSum, totalMax)
		}
		if st.WorstAvg != worstBySum {
			t.Errorf("n=%d: WorstAvg %+v, sequential loop found %+v", n, st.WorstAvg, worstBySum)
		}
		if st.WorstMax != worstByMax {
			t.Errorf("n=%d: WorstMax %+v, sequential loop found %+v", n, st.WorstMax, worstByMax)
		}
		if !st.Verified() {
			t.Errorf("n=%d: verification failed unexpectedly", n)
		}
	}
}

// TestAtlasOnOffIdentical is the atlas acceptance guarantee at the sweep
// level: the same seed produces byte-identical aggregates with the atlas
// serving kernels, with no atlas (NoKernels builds none), and at any
// worker count — the atlas is purely a throughput optimisation.
func TestAtlasOnOffIdentical(t *testing.T) {
	base := cycleSpec(17, []int{16, 33, 64}, 7, 1)
	base.NoKernels = true
	want, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		spec := cycleSpec(17, []int{16, 33, 64}, 7, workers)
		got, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("atlas workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: atlas-backed aggregates differ from builder run", workers)
		}
	}
}

// TestAtlasMemLimitFallbackIdentical pins the degraded mode end to end: a
// sweep whose atlases exhaust mid-run still emits identical tables.
func TestAtlasMemLimitFallbackIdentical(t *testing.T) {
	base := cycleSpec(21, []int{48}, 6, 2)
	base.NoKernels = true
	want, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	spec := cycleSpec(21, []int{48}, 6, 2)
	spec.AtlasMemLimit = 2048
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("memory-capped atlas sweep diverged from builder sweep")
	}
}

// TestAtlasAcrossFamilies runs the sweep's kernels over the atlas on
// non-ring families (the E9 shapes) against the builder view path.
func TestAtlasAcrossFamilies(t *testing.T) {
	builders := map[string]func(n int, rng *rand.Rand) (graph.Graph, error){
		"path": func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewPath(n) },
		"grid": func(_ int, _ *rand.Rand) (graph.Graph, error) { return graph.NewGrid(5, 5) },
		"tree": func(n int, rng *rand.Rand) (graph.Graph, error) { return graph.NewRandomTree(n, rng) },
		"gnp":  func(n int, rng *rand.Rand) (graph.Graph, error) { return graph.NewGNP(n, 0.15, rng) },
	}
	for name, build := range builders {
		spec := cycleSpec(5, []int{25}, 4, 3)
		spec.Graph = build
		spec.Verify = nil // GNP may be disconnected; skip the ring verifier
		spec.NoKernels = true
		want, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s builder: %v", name, err)
		}
		spec.NoKernels = false
		got, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s atlas: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: atlas sweep diverged from builder sweep", name)
		}
	}
}

// TestCancellationReturnsPartial cancels a long sweep mid-flight and
// demands a prompt return carrying both the partial aggregates and a
// wrapped context error.
func TestCancellationReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := cycleSpec(3, []int{64}, 100000, 2)
	go func() {
		// Give the sweep a moment to start some trials, then cancel.
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	res, err := Run(ctx, spec)
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	if res == nil {
		t.Fatal("cancelled sweep returned nil partial result")
	}
	if got := res.Sizes[0].Trials; got >= 100000 {
		t.Errorf("cancelled sweep completed all %d trials", got)
	}
}

// TestCancellationAfterCompletionIsClean regresses the late-fire edge: a
// context cancelled after the final trial completed cost no results, so the
// sweep (and Map) must return success, not a bogus "partial results" error.
func TestCancellationAfterCompletionIsClean(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := cycleSpec(2, []int{8, 12}, 3, 1)
	spec.Observe = func(sizeIdx, trial int, _ graph.Graph, _ ids.Assignment, _ *local.Result) {
		// The sequential path executes sizes largest-first, so n=8 (sizeIdx
		// 0) runs last and its final trial is the sweep's last.
		if sizeIdx == 0 && trial == 2 {
			cancel()
		}
	}
	res, err := Run(ctx, spec)
	if err != nil {
		t.Fatalf("fully completed sweep reported %v", err)
	}
	if res.Sizes[0].Trials != 3 || res.Sizes[1].Trials != 3 {
		t.Fatalf("trials lost: %+v", res.Sizes)
	}

	mctx, mcancel := context.WithCancel(context.Background())
	defer mcancel()
	if err := Map(mctx, 1, 5, func(i int) error {
		if i == 4 {
			mcancel()
		}
		return nil
	}); err != nil {
		t.Fatalf("fully completed Map reported %v", err)
	}
}

// TestStrictVerifyAborts wires a rejecting verifier and expects the sweep
// to fail fast in Strict mode but only count in loose mode.
func TestStrictVerifyAborts(t *testing.T) {
	spec := cycleSpec(1, []int{8}, 4, 2)
	spec.Verify = func(graph.Graph, ids.Assignment, *local.Result) error {
		return fmt.Errorf("rejected")
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("loose verify must not abort: %v", err)
	}
	if res.Sizes[0].Failures != 4 || res.Sizes[0].Verified() {
		t.Errorf("loose verify: %d failures recorded, want 4", res.Sizes[0].Failures)
	}
	spec.Strict = true
	if _, err := Run(context.Background(), spec); err == nil {
		t.Error("strict verify did not abort the sweep")
	}
}

// TestSummarizeHistMatchesMeasure pins the histogram summary to the
// reference implementation on awkward distributions.
func TestSummarizeHistMatchesMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		radii := make([]int, n)
		maxR := 0
		for i := range radii {
			radii[i] = rng.Intn(12)
			if radii[i] > maxR {
				maxR = radii[i]
			}
		}
		hist := make([]int64, maxR+1)
		for _, r := range radii {
			hist[r]++
		}
		want := measure.Summarize(radii)
		got := summarizeHist(hist)
		if got != want {
			t.Fatalf("radii %v: summarizeHist %+v, measure.Summarize %+v", radii, got, want)
		}
	}
}

// TestFixedAssignment pins a deterministic Assign: a single trial on the
// identity permutation must reproduce a direct engine run exactly.
func TestFixedAssignment(t *testing.T) {
	const n = 24
	spec := cycleSpec(5, []int{n}, 1, 3)
	spec.Assign = func(_, n, _ int, _ *rand.Rand) (ids.Assignment, error) {
		return ids.Identity(n), nil
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := local.RunView(graph.MustCycle(n), ids.Identity(n), largestid.Pruning{})
	if err != nil {
		t.Fatal(err)
	}
	want := measure.Summarize(direct.Radii)
	if got := res.Sizes[0].WorstAvg; got != want {
		t.Errorf("single fixed trial summary %+v, direct run %+v", got, want)
	}
	if res.Sizes[0].TotalSum != int64(want.Sum) {
		t.Errorf("TotalSum %d, want %d", res.Sizes[0].TotalSum, want.Sum)
	}
}

// TestSpecValidation covers the required-field errors.
func TestSpecValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	s := cycleSpec(1, []int{4}, 1, 1)
	s.Alg = nil
	if _, err := Run(context.Background(), s); err == nil {
		t.Error("nil Alg accepted")
	}
	s = cycleSpec(1, []int{4}, 1, 1)
	s.Graph = nil
	if _, err := Run(context.Background(), s); err == nil {
		t.Error("nil Graph accepted")
	}
	s = cycleSpec(1, []int{4}, 1, 1)
	s.Graph = func(int, *rand.Rand) (graph.Graph, error) { return nil, fmt.Errorf("boom") }
	if _, err := Run(context.Background(), s); err == nil {
		t.Error("graph build error swallowed")
	}
}

func TestMap(t *testing.T) {
	out := make([]int, 100)
	if err := Map(context.Background(), 8, len(out), func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	wantErr := fmt.Errorf("slot failure")
	if err := Map(context.Background(), 4, 50, func(i int) error {
		if i == 17 {
			return wantErr
		}
		return nil
	}); !errors.Is(err, wantErr) {
		t.Errorf("Map error = %v, want %v", err, wantErr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Map(ctx, 4, 1000, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Map error = %v", err)
	}
}

// TestCancelledFinishMergesExactly is the direct coverage of the cancelled
// path through finish: the partial aggregates of a context-cancelled run
// must equal — byte for byte — the fold of exactly the trials that
// completed, and those trials must merge split-wise to the same bytes.
func TestCancelledFinishMergesExactly(t *testing.T) {
	const (
		seed   = 31
		n      = 16
		trials = 5000
	)
	spec := cycleSpec(seed, []int{n}, trials, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed [trials]atomic.Bool
	var count atomic.Int32
	spec.Observe = func(_, trial int, _ graph.Graph, _ ids.Assignment, _ *local.Result) {
		completed[trial].Store(true)
		if count.Add(1) == 40 {
			cancel()
		}
	}
	res, err := Run(ctx, spec)
	if err == nil {
		t.Fatal("cancelled sweep returned nil error; cannot exercise the partial path")
	}
	if res.Sizes[0].Trials >= trials {
		t.Fatal("cancellation completed everything; nothing partial to check")
	}

	// Recompute every completed trial independently and fold it the way the
	// engine does — Observe fires immediately before the engine's own fold,
	// with no cancellation point between, so the recorded set IS the
	// aggregated set.
	c := graph.MustCycle(n)
	want := SizeStats{N: n}
	var firstHalf, secondHalf SizeStats
	firstHalf.N, secondHalf.N = n, n
	folded := 0
	for trial := 0; trial < trials; trial++ {
		if !completed[trial].Load() {
			continue
		}
		rng := rand.New(rand.NewSource(TrialSeed(seed, 0, trial)))
		r, err := local.RunView(c, ids.Random(n, rng), largestid.Pruning{})
		if err != nil {
			t.Fatal(err)
		}
		hist := histOf(r.Radii)
		sum := summarizeHist(hist)
		want.addTrial(trial, sum, hist, false)
		if folded%2 == 0 {
			firstHalf.addTrial(trial, sum, hist, false)
		} else {
			secondHalf.addTrial(trial, sum, hist, false)
		}
		folded++
	}
	if folded != res.Sizes[0].Trials {
		t.Fatalf("observed %d completed trials, aggregate counted %d", folded, res.Sizes[0].Trials)
	}
	if !reflect.DeepEqual(res.Sizes[0], want) {
		t.Errorf("cancelled partial aggregates diverge from the completed trials\ngot  %+v\nwant %+v", res.Sizes[0], want)
	}

	// The same trials split across two partials must merge to the
	// identical bytes — the guarantee lease completion records rest on.
	merged := SizeStats{N: n}
	merged.Merge(&secondHalf)
	merged.Merge(&firstHalf)
	if !reflect.DeepEqual(merged, want) {
		t.Errorf("split-and-merge of the completed trials diverges\ngot  %+v\nwant %+v", merged, want)
	}
}

// histOf builds one trial's radius histogram, trimmed to its max radius —
// the exact shape the engine folds.
func histOf(radii []int) []int64 {
	var hist []int64
	for _, r := range radii {
		for len(hist) <= r {
			hist = append(hist, 0)
		}
		hist[r]++
	}
	return hist
}
