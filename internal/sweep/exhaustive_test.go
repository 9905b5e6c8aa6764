package sweep

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/measure"
)

func exhaustiveSpec(sizes []int, workers int) Spec {
	return Spec{
		Sizes:      sizes,
		Workers:    workers,
		Exhaustive: true,
		Graph:      func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) },
		Alg:        func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} },
	}
}

// TestExhaustiveDeterministicAcrossWorkerCounts is the enumeration mode's
// core guarantee: the full-rank-space aggregates are byte-identical at any
// worker count (and with the atlas/kernel fast paths toggled off, since
// enumeration rides the same execution substrate as sampling).
func TestExhaustiveDeterministicAcrossWorkerCounts(t *testing.T) {
	sizes := []int{5, 6, 7}
	base, err := Run(context.Background(), exhaustiveSpec(sizes, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		got, err := Run(context.Background(), exhaustiveSpec(sizes, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: exhaustive aggregates differ\nseq: %+v\ngot: %+v", workers, base, got)
		}
	}
	for _, noKernels := range []bool{false, true} {
		spec := exhaustiveSpec(sizes, 3)
		spec.NoKernels = noKernels
		got, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("noKernels=%v: %v", noKernels, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("noKernels=%v: aggregates differ from fast path", noKernels)
		}
	}
}

// TestExhaustiveCoversEveryRankOnce is the block-partition guarantee: across
// any worker layout, every rank in [0, n!) is executed exactly once and the
// trial coordinate carries exactly its unranked permutation.
func TestExhaustiveCoversEveryRankOnce(t *testing.T) {
	const n = 6
	f, err := ids.Factorial(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		visits := make([]int32, f)
		var mismatches atomic.Int32
		spec := exhaustiveSpec([]int{n}, workers)
		spec.Observe = func(_, trial int, _ graph.Graph, a ids.Assignment, _ *local.Result) {
			atomic.AddInt32(&visits[trial], 1)
			want := ids.UnrankInto(make([]int, n), uint64(trial))
			if !reflect.DeepEqual(a, want) {
				mismatches.Add(1)
			}
		}
		if _, err := Run(context.Background(), spec); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := mismatches.Load(); got != 0 {
			t.Errorf("workers=%d: %d trials ran a permutation other than their rank's", workers, got)
		}
		for rank, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: rank %d visited %d times", workers, rank, v)
			}
		}
	}
}

// TestExhaustiveMatchesBruteForce folds every permutation through the view
// engine by hand and compares all streaming aggregates — totals, extremal
// trials (including the new BestAvg), pooled histogram.
func TestExhaustiveMatchesBruteForce(t *testing.T) {
	const n = 6
	res, err := Run(context.Background(), exhaustiveSpec([]int{n}, 4))
	if err != nil {
		t.Fatal(err)
	}
	c := graph.MustCycle(n)
	f, _ := ids.Factorial(n)
	var (
		want      SizeStats
		buf       = make([]int, n)
		histSized []int64
	)
	want.N = n
	for rank := uint64(0); rank < f; rank++ {
		a := ids.UnrankInto(buf, rank)
		r, err := local.RunView(c, a, largestid.Pruning{})
		if err != nil {
			t.Fatal(err)
		}
		s := measure.Summarize(r.Radii)
		histSized = histSized[:0]
		for _, rad := range r.Radii {
			for len(histSized) <= rad {
				histSized = append(histSized, 0)
			}
			histSized[rad]++
		}
		want.addTrial(int(rank), s, histSized, false)
	}
	got := res.Sizes[0]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exhaustive sweep diverges from brute force\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestExhaustiveSpecValidation pins the misuse errors: Assign and Trials
// conflict with enumeration, and sizes beyond ids.MaxRankN are rejected.
func TestExhaustiveSpecValidation(t *testing.T) {
	spec := exhaustiveSpec([]int{5}, 1)
	spec.Assign = func(_, n, _ int, rng *rand.Rand) (ids.Assignment, error) {
		return ids.Random(n, rng), nil
	}
	if _, err := Run(context.Background(), spec); err == nil {
		t.Error("Exhaustive with Assign accepted")
	}
	spec = exhaustiveSpec([]int{5}, 1)
	spec.Trials = 3
	if _, err := Run(context.Background(), spec); err == nil {
		t.Error("Exhaustive with Trials accepted")
	}
	spec = exhaustiveSpec([]int{ids.MaxRankN + 1}, 1)
	if _, err := Run(context.Background(), spec); err == nil {
		t.Error("size beyond MaxRankN accepted")
	}
}

// TestExhaustiveCancellation: a pre-cancelled context must abort with the
// partial-results error, not enumerate 7! permutations.
func TestExhaustiveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, exhaustiveSpec([]int{7}, 2))
	if err == nil {
		t.Fatal("cancelled exhaustive run returned no error")
	}
	if res == nil {
		t.Fatal("cancelled run returned nil partial result")
	}
}
