// Package repro's root benchmark suite regenerates every experiment of the
// paper (E1..E9, one benchmark per claim — the paper's "tables and
// figures"), benchmarks the simulator's hot paths, and pits the sharded
// sweep engine against a single worker on a full-size experiment. Run:
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks use reduced sweeps so a full -bench=. pass stays in
// seconds; cmd/avgbench runs the full-size tables.
package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/algorithms/mis"
	"repro/internal/analytic"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/linial"
	"repro/internal/local"
	"repro/internal/sweep"
)

// benchExperiment runs one registered experiment with a bench-sized sweep.
func benchExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkE1LargestIDWorstCase regenerates E1: the classic measure of the
// largest-ID problem is linear (max radius = n/2 at the max-ID vertex).
func BenchmarkE1LargestIDWorstCase(b *testing.B) {
	benchExperiment(b, "E1", experiments.Config{Seed: 1, Sizes: []int{64, 256, 1024}, Trials: 2})
}

// BenchmarkE2LargestIDAverage regenerates E2: the average measure of the
// same algorithm is Θ(log n) — the paper's exponential separation — with
// the worst-case permutation reconstructed exactly from the recurrence.
func BenchmarkE2LargestIDAverage(b *testing.B) {
	benchExperiment(b, "E2", experiments.Config{Seed: 1, Sizes: []int{64, 256, 1024, 4096}, Trials: 2})
}

// BenchmarkE3Recurrence regenerates E3: a(p) == A000788(p) == Θ(n ln n).
func BenchmarkE3Recurrence(b *testing.B) {
	benchExperiment(b, "E3", experiments.Config{Seed: 1, Sizes: []int{64, 1024, 16384}})
}

// BenchmarkE4ColeVishkin regenerates E4: 3-colouring in O(log* n) for every
// vertex, with and without knowledge of the identifier space.
func BenchmarkE4ColeVishkin(b *testing.B) {
	benchExperiment(b, "E4", experiments.Config{Seed: 1, Sizes: []int{64, 1024, 16384}})
}

// BenchmarkE5AdversarialColouring regenerates E5: the Theorem-1 permutation
// keeps the 3-colouring average radius at its Ω(log* n) floor.
func BenchmarkE5AdversarialColouring(b *testing.B) {
	benchExperiment(b, "E5", experiments.Config{Seed: 1, Sizes: []int{64, 128}})
}

// BenchmarkE6RandomExpectation regenerates E6: the expectation over random
// permutations (§4 further work) is Θ(log n) as well.
func BenchmarkE6RandomExpectation(b *testing.B) {
	benchExperiment(b, "E6", experiments.Config{Seed: 1, Sizes: []int{64, 256, 1024}, Trials: 5})
}

// BenchmarkE7Characterisation regenerates E7: largest ID separates the two
// measures, colouring and MIS do not (§4 characterisation question).
func BenchmarkE7Characterisation(b *testing.B) {
	benchExperiment(b, "E7", experiments.Config{Seed: 1, Sizes: []int{64, 256, 1024}})
}

// BenchmarkE8LinialThreshold regenerates E8: exact 3-colourability of the
// smallest neighbourhood graphs (feasible cases only; the s=7
// impossibility proof runs in the full table via cmd/avgbench).
func BenchmarkE8LinialThreshold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := linial.ThreeColorable(6, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !v.Usable {
			b.Fatal("s=6 must be feasible")
		}
	}
}

// BenchmarkE9GeneralGraphs regenerates E9: the measure separation across
// graph families (§4's "more general graphs" question).
func BenchmarkE9GeneralGraphs(b *testing.B) {
	benchExperiment(b, "E9", experiments.Config{Seed: 1, Sizes: []int{256, 1024}, Trials: 2})
}

// --- sharded sweep engine vs a single worker ---

// benchSweepWorkers regenerates E6 at its full default scale (sizes up to
// n=4096, 20 random permutations each) with a fixed worker-pool size. The
// Sequential/Sharded pair is the engine's headline: identical tables,
// wall-clock divided by the core count. noKernels pins the run to the
// per-vertex view path on the ball builder, the baseline the Atlas pair
// (flat kernels over the shared atlas) is measured against. The tables
// are byte-identical in every configuration.
func benchSweepWorkers(b *testing.B, workers int, noKernels bool) {
	b.Helper()
	e, err := experiments.Get("E6")
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Seed: 1, Workers: workers, NoKernels: noKernels}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkSweepE6Sequential is the full-size E6 sweep on one worker with
// kernels off, so every vertex runs on the ball builder — the old
// hand-rolled loop's execution model, kept as the perf baseline.
func BenchmarkSweepE6Sequential(b *testing.B) { benchSweepWorkers(b, 1, true) }

// BenchmarkSweepE6Sharded is the builder-path sweep sharded across all
// cores; same seed, byte-identical table.
func BenchmarkSweepE6Sharded(b *testing.B) { benchSweepWorkers(b, 0, true) }

// BenchmarkSweepE6AtlasSequential runs the same sweep's flat kernels over
// the shared ball atlas on one worker: BFS layers are materialised once
// per size and every trial shrinks to one pass over the skeletons.
func BenchmarkSweepE6AtlasSequential(b *testing.B) { benchSweepWorkers(b, 1, false) }

// BenchmarkSweepE6AtlasSharded combines every engine layer: flat decision
// kernels over the shared atlas under the full worker pool — the headline
// configuration the CI regression guard tracks.
func BenchmarkSweepE6AtlasSharded(b *testing.B) { benchSweepWorkers(b, 0, false) }

// BenchmarkSweepE4Colouring runs E4 at sizes 1024 and 4096, 4 trials:
// the Cole-Vishkin and Uniform ring kernels, both allocation-free per
// vertex, plus the colouring verifier. Its allocs/op guard catches
// per-vertex allocation coming back on either kernel.
func BenchmarkSweepE4Colouring(b *testing.B) {
	benchExperiment(b, "E4", experiments.Config{Seed: 1, Sizes: []int{1024, 4096}, Trials: 4})
}

// benchSweepRaw measures the sweep engine directly (no table rendering):
// the pruning algorithm over random permutations of a 4096-cycle, 32
// trials, on the builder view path (noKernels) or the kernels over the
// default atlas backend.
func benchSweepRaw(b *testing.B, workers int, noKernels bool) {
	b.Helper()
	spec := sweep.Spec{
		Seed:      9,
		Sizes:     []int{4096},
		Trials:    32,
		Workers:   workers,
		NoKernels: noKernels,
		Graph:     func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) },
		Alg:       func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} },
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sizes[0].Trials != 32 {
			b.Fatal("incomplete sweep")
		}
	}
}

func BenchmarkSweepRawSequential(b *testing.B)      { benchSweepRaw(b, 1, true) }
func BenchmarkSweepRawSharded(b *testing.B)         { benchSweepRaw(b, 0, true) }
func BenchmarkSweepRawAtlasSequential(b *testing.B) { benchSweepRaw(b, 1, false) }
func BenchmarkSweepRawAtlasSharded(b *testing.B)    { benchSweepRaw(b, 0, false) }

// benchSweepImplicit measures the implicit backend directly: closed-form
// ball synthesis (no adjacency, no atlas, no CSR) serving the flat pruning
// kernel over random permutations of a 65536-cycle — E2's average-radius
// sweep at a size where the materialised atlas stops being the obvious
// default. Tables are byte-identical to the atlas backend and to the
// builder view path; this pair tracks the synthesis path's time and its O(workers) allocation
// profile.
func benchSweepImplicit(b *testing.B, workers int) {
	b.Helper()
	spec := sweep.Spec{
		Seed:    9,
		Sizes:   []int{65536},
		Trials:  8,
		Workers: workers,
		Backend: sweep.BackendImplicit,
		Graph:   func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) },
		Alg:     func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} },
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sizes[0].Trials != 8 {
			b.Fatal("incomplete sweep")
		}
	}
}

func BenchmarkSweepE2ImplicitSequential(b *testing.B) { benchSweepImplicit(b, 1) }
func BenchmarkSweepE2ImplicitSharded(b *testing.B)    { benchSweepImplicit(b, 0) }

// --- exact exhaustive enumeration: Heap baseline vs the sharded engine ---

// exactBenchN is the enumeration benchmark size: 10! = 3 628 800
// permutations, the old MaxEnumerationN ceiling.
const exactBenchN = 10

// BenchmarkExactCycleSequential is the pre-engine exact loop: Heap's
// algorithm over all n! permutations on one core, folding the closed-form
// pruning radii — the baseline the sharded engine is measured against.
func BenchmarkExactCycleSequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := exact.CycleStatsSequential(exactBenchN)
		if err != nil {
			b.Fatal(err)
		}
		if st.Perms != 3628800 {
			b.Fatalf("visited %d permutations", st.Perms)
		}
	}
}

// BenchmarkExactCycleSharded runs the same enumeration through the sweep
// engine — rank-block sharding over all cores, shared atlas, flat pruning
// kernel — including the closed-form cross-check. NoQuotient pins the full
// n! fold: this row is the baseline the quotient pair below is measured
// against. Single-core the engine costs ~1.5× the closed-form fold per
// permutation, so the speedup is ~cores/1.5 (≳3× from 5 cores up; run on a
// multicore machine to see it).
func BenchmarkExactCycleSharded(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := exact.CycleStats(context.Background(), exactBenchN, exact.Options{NoQuotient: true})
		if err != nil {
			b.Fatal(err)
		}
		if st.Perms != 3628800 {
			b.Fatalf("visited %d permutations", st.Perms)
		}
	}
}

// benchExactQuotient enumerates the same instance over canonical orbit
// representatives only: n!/2n executions folded with weight 2n, returning
// Stats bit-identical to the full fold. At n=10 that is 181 440
// representatives instead of 3 628 800 permutations — a structural 2n=20×
// work reduction the BENCH_sweep.json guard tracks against the
// ExactCycleSharded baseline (the acceptance floor is n×).
func benchExactQuotient(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := exact.CycleStats(context.Background(), exactBenchN, exact.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		// Perms is orbit-weighted: the quotient run still accounts for every
		// one of the n! permutations.
		if st.Perms != 3628800 {
			b.Fatalf("accounted %d permutations", st.Perms)
		}
	}
}

func BenchmarkExactCycleQuotientSequential(b *testing.B) { benchExactQuotient(b, 1) }
func BenchmarkExactCycleQuotientSharded(b *testing.B)    { benchExactQuotient(b, 0) }

// --- simulator hot paths ---

// BenchmarkViewEnginePruning measures the view engine running the pruning
// algorithm over a full random cycle (the core of E1/E2/E6).
func BenchmarkViewEnginePruning(b *testing.B) {
	const n = 4096
	c := graph.MustCycle(n)
	a := ids.Random(n, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.RunView(c, a, largestid.Pruning{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewEngineColeVishkin measures a full CV colouring run.
func BenchmarkViewEngineColeVishkin(b *testing.B) {
	const n = 4096
	c := graph.MustCycle(n)
	a := ids.Random(n, rand.New(rand.NewSource(2)))
	alg := coloring.ForMaxID(a.MaxID())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.RunView(c, a, alg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewEngineUniform measures the no-knowledge colouring.
func BenchmarkViewEngineUniform(b *testing.B) {
	const n = 1024
	c := graph.MustCycle(n)
	a := ids.Random(n, rand.New(rand.NewSource(3)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.RunView(c, a, coloring.Uniform{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewEngineMIS measures the composed MIS algorithm.
func BenchmarkViewEngineMIS(b *testing.B) {
	const n = 512
	c := graph.MustCycle(n)
	a := ids.Random(n, rand.New(rand.NewSource(4)))
	alg := mis.FromColoring{Base: coloring.ForMaxID(a.MaxID())}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.RunView(c, a, alg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageEngineGather measures the round-loop message engine
// running the gather adapter (the round-based formulation).
func BenchmarkMessageEngineGather(b *testing.B) {
	const n = 256
	c := graph.MustCycle(n)
	a := ids.Random(n, rand.New(rand.NewSource(5)))
	alg := local.NewGather(largestid.Pruning{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.RunMessage(c, a, alg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecurrenceDP measures the exact a(p) dynamic program.
func BenchmarkRecurrenceDP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.Recurrence(1 << 14); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdversaryBuild measures the Theorem-1 permutation construction.
func BenchmarkAdversaryBuild(b *testing.B) {
	const n = 128
	builder := adversary.Builder{Alg: coloring.ForMaxID(n - 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, _, err := builder.Build(n, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBallGrowth measures the incremental ball builder the view engine
// depends on.
func BenchmarkBallGrowth(b *testing.B) {
	const n = 1 << 14
	c := graph.MustCycle(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb := graph.NewBallBuilder(c, 0)
		for r := 0; r < n/2; r++ {
			bb.Grow()
		}
	}
}

// BenchmarkBallAtlasServe measures the atlas steady state the kernels rely
// on: after one center's layers are materialised, every further request
// is answered by the published snapshot, one atomic load, without growth.
func BenchmarkBallAtlasServe(b *testing.B) {
	const n = 1 << 14
	c := graph.MustCycle(n)
	atlas := graph.NewBallAtlas(c, -1)
	if atlas.Ensure(0, n/2) == nil {
		b.Fatal("atlas capped")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := atlas.Ensure(0, n/2); st == nil || st.SizeAt(n/2) != n {
			b.Fatal("under-served")
		}
	}
}
