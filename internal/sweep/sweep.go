// Package sweep is the shared execution engine for the paper's experiments:
// it turns "(graph generator, permutation source, algorithm) × trials" into
// batched jobs dispatched across a worker pool and streams the results into
// per-size aggregates.
//
// Every experiment in the repository is a sweep over graph sizes × sampled
// identifier permutations, measuring the two running-time measures under
// comparison (max_v r(v) and (Σ_v r(v))/n). The package factors out the
// loop all of them used to hand-roll, and adds what a full-size table needs.
// It is organised as three explicit layers:
//
//   - PLAN (plan.go): a serializable description of the work — seed, sizes
//     and trial space. Sampled trial indices and exhaustive permutation
//     ranks partition identically, so a Plan means the same thing to every
//     process that holds it.
//   - EXECUTE (execute.go, this file's Run): the worker pool running the
//     plan's blocks. Each worker owns a local.Runner, so ball builders, label
//     slices and result buffers are recycled across every trial the worker
//     executes — steady-state sweeps allocate almost nothing. Trials are
//     chunked into contiguous blocks (Spec.Workers bounds the pool, default
//     GOMAXPROCS) and fold into O(sizes)-memory SizeStats — integer totals,
//     extremal-trial summaries, pooled radius histograms — never into
//     per-trial slices.
//   - DISTRIBUTE (lease.go, store.go, codec.go): grain claims over a
//     Store. Any number of executors, in any number of processes,
//     cooperate on one plan by claiming free grains one at a time and
//     re-executing grains a stalled peer left; each grain's aggregate is
//     published as an immutable completion record, so a killed executor
//     resumes by simply running again, and CollectLeased folds the records
//     to the bytes a single process produces.
//
// Determinism is the package contract: each (size, trial) derives its own
// rng seed from the sweep seed and its coordinates alone, and all folds
// commute (ties broken by trial index), so a given seed produces
// bit-identical results at any worker count, across any grain schedule,
// and through any kill/resume sequence. Cancellation is prompt: the context
// is polled between vertices, trials and blocks; a cancelled Run returns
// the partial aggregates and a wrapped context error.
package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

// Spec describes one permutation sweep.
type Spec struct {
	// Seed drives all randomness. Equal seeds reproduce results exactly,
	// independent of Workers.
	Seed int64
	// Sizes is the n sweep; one SizeStats is produced per entry.
	Sizes []int
	// Trials is the number of sampled permutations per size (default 1).
	// Ignored under Exhaustive.
	Trials int
	// Exhaustive replaces sampling with full enumeration: every size runs
	// ALL n! identifier permutations exactly once, trial t executing the
	// rank-t permutation in lexicographic factorial-number-system order
	// (ids.Rank/Unrank). The rank space splits into the same contiguous
	// blocks sampled trials use — each worker unranks its block's
	// first permutation and walks lexicographic successors in place — so
	// the atlas, the kernel fast path and the streaming aggregation all
	// apply unchanged and results stay byte-identical at any worker
	// count. Seed then only affects Graph construction; Trials and Assign
	// must be unset. Sizes are capped at ids.MaxRankN, and wall-clock is
	// the caller's business: bound enormous enumerations with the context.
	Exhaustive bool
	// Quotient, valid only with Exhaustive, compresses full enumeration by
	// the graph's symmetry: every size's graph must declare its
	// automorphism group (graph.Automorphisms), trial t executes the
	// rank-t CANONICAL representative — the lexicographic minimum of its
	// orbit (ids.CanonicalUnrank order) — and folds with weight |Aut| at
	// the representative's FULL lexicographic rank. The action on
	// injective assignments is free and the observed radius multiset is
	// orbit-invariant, so the merged aggregates (totals, histograms, the
	// extremal trials and their indices) are bit-for-bit identical to the
	// full n! enumeration while executing only n!/|Aut| trials per size.
	// Graphs that do not declare a group fail with
	// *QuotientUnsupportedError, mirroring the implicit backend's decline.
	Quotient bool
	// Done lists, per size index, ascending non-overlapping trial ranges to
	// skip: planned blocks cover the complement of Done, and the returned
	// aggregates contain only the executed trials. Lease executors use it to
	// run exactly one grain through the ordinary engine. Empty means run
	// everything.
	Done [][]TrialRange
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// MaxRadius overrides the engine's safety cap when positive.
	MaxRadius int
	// Graph builds the size-n instance. The rng is seeded from (Seed, size
	// index) so random families are reproducible. Required.
	Graph func(n int, rng *rand.Rand) (graph.Graph, error)
	// Assign produces the identifier assignment of one trial; the rng is
	// seeded from (Seed, size index, trial). sizeIdx indexes Sizes, which
	// disambiguates duplicate size values. Defaults to uniformly random
	// permutations.
	Assign func(sizeIdx, n, trial int, rng *rand.Rand) (ids.Assignment, error)
	// Alg instantiates the algorithm for one trial (assignment-dependent
	// algorithms like Cole-Vishkin's ForMaxID need a). Required.
	Alg func(n int, a ids.Assignment) local.ViewAlgorithm
	// Verify optionally checks the outputs of every trial. Failures are
	// counted in SizeStats.Failures — or abort the sweep when Strict is
	// set. Must be safe for concurrent use.
	Verify func(g graph.Graph, a ids.Assignment, res *local.Result) error
	// Strict promotes a Verify failure into a sweep-aborting error.
	Strict bool
	// Observe, when set, sees every trial's raw execution from inside the
	// worker (res, its slices, and a are only valid during the call — the
	// worker reuses the assignment buffer across the trials of a batch).
	// Must be
	// safe for concurrent use: trials run on different workers, so writes
	// must be keyed by the full (sizeIdx, trial) coordinate — or guarded by
	// a trial check, or the sweep restricted to Trials = 1. A slot keyed by
	// sizeIdx alone races between the trials that share the size.
	Observe func(sizeIdx, trial int, g graph.Graph, a ids.Assignment, res *local.Result)
	// NoKernels pins atlas-backed runs to the per-vertex view path even for
	// algorithms implementing local.Kernel. By default a kernel-capable
	// algorithm decides every vertex in one flat pass over the atlas
	// skeleton; results are byte-identical either way, so the toggle exists
	// for A/B profiling and perf bisection.
	NoKernels bool
	// AtlasMemLimit caps each size's atlas memory in bytes: 0 applies
	// graph.DefaultAtlasMemLimit, negative disables the cap. A capped
	// atlas transparently degrades to the ball-builder path.
	AtlasMemLimit int64
	// Backend selects how workers source balls: the shared materialised
	// atlas (default), the per-worker ball builder, or closed-form implicit
	// synthesis for graph.Implicit families — see the Backend constants.
	// Results are byte-identical across backends for equal seeds; the
	// implicit backend is what holds sweep memory to O(workers) at
	// n = 10^6..10^8. BackendImplicit requires every size's graph to
	// implement graph.Implicit with a comparable dynamic type.
	Backend Backend
	// StreamIDs replaces the default buffered identifier draw
	// (ids.RandomInto) with the streaming permutation family
	// (ids.StreamInto): each trial's assignment is a seeded O(1)-per-vertex
	// Feistel bijection, deterministic across workers, grains and backends.
	// The permutations differ from the default family's, so StreamIDs
	// changes result bytes — it is part of the sweep's identity, like Seed.
	// Incompatible with Assign and Exhaustive (both already define their
	// own draws).
	StreamIDs bool
}

// Result is a completed (or cancelled) sweep: one aggregate per size, in
// Spec.Sizes order.
type Result struct {
	Sizes []SizeStats `json:"sizes"`
}

// SpecConflictError reports Spec toggles that define the same thing twice,
// or a toggle missing its prerequisite: the typed form of the
// exhaustive-path validation failures, so drivers diagnose a Quotient,
// Exhaustive or StreamIDs conflict the same way they diagnose backend
// declines (internal/cli).
type SpecConflictError struct {
	// Fields names the Spec fields whose combination cannot run.
	Fields []string
	// Reason explains the conflict and how to resolve it.
	Reason string
}

func (e *SpecConflictError) Error() string {
	return fmt.Sprintf("sweep: %s: %s", strings.Join(e.Fields, "+"), e.Reason)
}

// QuotientUnsupportedError reports a graph the symmetry-quotient path
// cannot serve: its family does not implement graph.Automorphisms, or it
// declined to declare a group at this size. Qualifying lists the families
// that do declare, for the CLI's remediation message.
type QuotientUnsupportedError struct {
	// Graph is the offending instance's Go type (fmt %T).
	Graph string
	// N is the instance's vertex count.
	N int
	// Qualifying lists the symmetry-declaring families the graph package
	// ships.
	Qualifying []string
}

func (e *QuotientUnsupportedError) Error() string {
	return fmt.Sprintf("sweep: quotient enumeration cannot serve %s (n=%d): the graph family must declare its automorphism group; qualifying families: %s",
		e.Graph, e.N, strings.Join(e.Qualifying, ", "))
}

// Graphs builds every size's graph of the spec, in Sizes order — the
// instances Run executes on. Run builds them once, up front: Graph
// implementations are immutable, so all workers share them. One reseeded
// generator serves every build; Rand.Seed reproduces a fresh generator bit
// for bit, so PlanOf, Run and any caller derive identical instances.
func Graphs(spec Spec) ([]graph.Graph, error) {
	graphs := make([]graph.Graph, len(spec.Sizes))
	grng := rand.New(rand.NewSource(0))
	for i, n := range spec.Sizes {
		grng.Seed(graphSeed(spec.Seed, i))
		g, err := spec.Graph(n, grng)
		if err != nil {
			return nil, fmt.Errorf("sweep: build size %d: %w", n, err)
		}
		graphs[i] = g
	}
	return graphs, nil
}

// quotientsFor derives each size's canonical-rank quotient from the
// graph's declared automorphism group. A family that does not implement
// graph.Automorphisms — or declines at this size — fails with a typed
// *QuotientUnsupportedError; a declaration the closure cross-check
// rejects surfaces the ids layer's typed error.
func quotientsFor(graphs []graph.Graph) ([]*ids.Quotient, error) {
	qs := make([]*ids.Quotient, len(graphs))
	for i, g := range graphs {
		var sym graph.Symmetry
		if ag, ok := g.(graph.Automorphisms); ok {
			sym = ag.Automorphisms()
		}
		if !sym.Declares() {
			return nil, &QuotientUnsupportedError{
				Graph:      fmt.Sprintf("%T", g),
				N:          g.N(),
				Qualifying: graph.AutomorphismFamilies(),
			}
		}
		q, err := ids.NewQuotient(g.N(), sym.Generators, sym.Order, sym.Full)
		if err != nil {
			return nil, fmt.Errorf("sweep: quotient size %d: %w", g.N(), err)
		}
		qs[i] = q
	}
	return qs, nil
}

// Run executes the sweep. On cancellation it returns the partial aggregates
// together with an error wrapping the context's; on any other failure the
// first error wins and the sweep stops early.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if len(spec.Sizes) == 0 {
		return nil, fmt.Errorf("sweep: no sizes")
	}
	if spec.Alg == nil {
		return nil, fmt.Errorf("sweep: nil Alg")
	}
	if spec.Graph == nil {
		return nil, fmt.Errorf("sweep: nil Graph")
	}
	if spec.Exhaustive {
		if spec.Assign != nil {
			return nil, &SpecConflictError{Fields: []string{"Exhaustive", "Assign"},
				Reason: "Exhaustive enumerates permutations itself; Assign must be nil"}
		}
		if spec.Trials > 0 {
			return nil, &SpecConflictError{Fields: []string{"Exhaustive", "Trials"},
				Reason: "Exhaustive ignores Trials; leave it zero"}
		}
	}
	if spec.Quotient && !spec.Exhaustive {
		return nil, &SpecConflictError{Fields: []string{"Quotient", "Exhaustive"},
			Reason: "Quotient compresses the exhaustive rank space; set Exhaustive too"}
	}
	if spec.StreamIDs {
		if spec.Assign != nil {
			return nil, &SpecConflictError{Fields: []string{"StreamIDs", "Assign"},
				Reason: "StreamIDs replaces the default identifier draw; Assign must be nil"}
		}
		if spec.Exhaustive {
			return nil, &SpecConflictError{Fields: []string{"StreamIDs", "Exhaustive"},
				Reason: "StreamIDs and Exhaustive both define the trial's permutation; pick one"}
		}
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	graphs, err := Graphs(spec)
	if err != nil {
		return nil, err
	}

	// Under Quotient, every size's declared group is materialized once and
	// shared read-only by all workers (Quotient methods are concurrency-
	// safe on distinct buffers).
	var quotients []*ids.Quotient
	if spec.Quotient {
		if quotients, err = quotientsFor(graphs); err != nil {
			return nil, err
		}
	}

	// Per-size trial counts of the GLOBAL space: the sampled count
	// everywhere, the full n! rank space under Exhaustive, or the
	// canonical n!/|Aut| rank space under Quotient — with weights[i]
	// restoring the full space's mass through the weighted fold. The Done
	// complement is carved out of these below.
	trials := spec.Trials
	if trials <= 0 {
		trials = 1
	}
	counts := make([]int, len(spec.Sizes))
	weights := make([]int, len(spec.Sizes))
	globalTotal := 0
	for i, g := range graphs {
		counts[i], weights[i] = trials, 1
		if spec.Exhaustive {
			f, err := ids.Factorial(g.N())
			if err != nil {
				return nil, fmt.Errorf("sweep: exhaustive size %d: %w", g.N(), err)
			}
			if quotients != nil {
				counts[i] = int(quotients[i].Count())
				weights[i] = int(quotients[i].Order())
			} else {
				counts[i] = int(f)
			}
		}
		// globalTotal counts WEIGHTED trials — the full space's mass even
		// under a quotient — matching the unit finish() accounts in.
		if globalTotal += counts[i] * weights[i]; globalTotal < 0 {
			return nil, fmt.Errorf("sweep: exhaustive trial count overflows across sizes %v", spec.Sizes)
		}
	}
	if err := validateDone(spec.Done, counts); err != nil {
		return nil, err
	}

	// Resolve the ball-sourcing backend against the built graphs, then pin
	// the resolved value into the spec copy so EXECUTE never re-derives it.
	backend, err := resolveBackend(&spec, graphs)
	if err != nil {
		return nil, err
	}
	spec.Backend = backend

	// One shared ball atlas per size: BFS layers depend only on the graph,
	// so all trials and workers reuse them; layers grow lazily inside the
	// atlas under its own synchronisation, and atlases for comparable
	// graph values are shared across sweep runs (see atlasFor). The
	// builder backend runs without them, and the implicit backend replaces
	// them with per-worker synthesizers attached in runBlock.
	atlases := make([]*graph.BallAtlas, len(graphs))
	if backend == BackendAtlas {
		for i, g := range graphs {
			atlases[i] = atlasFor(g, spec.AtlasMemLimit)
		}
	}

	// PLAN: blocks are emitted largest instance first — the first block a
	// worker executes then grows every reusable buffer (result slices,
	// histogram, permutation scratch) to its final size, and smaller sizes
	// reuse them. Aggregation is commutative and trials are seeded (or,
	// exhaustively, ranked) by coordinates, so the order is unobservable in
	// the results.
	order := make([]int, len(spec.Sizes))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort: sizes lists are short
		for k := i; k > 0 && graphs[order[k]].N() > graphs[order[k-1]].N(); k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	blocks := planBlocks(order, counts, spec.Done, workers)
	planned := plannedTrials(blocks)
	if workers > planned && planned > 0 {
		workers = planned
	}
	// Cancellation accounting is in WEIGHTED trials: each executed
	// canonical representative settles its whole orbit. Overflow is
	// covered by the globalTotal check above (blocks tile a subset of the
	// global space).
	total := 0
	for _, b := range blocks {
		total += (b.T1 - b.T0) * weights[b.SizeIdx]
	}

	// EXECUTE: run the planned blocks through the pool, then MERGE the
	// worker shards into the final per-size aggregates.
	return execute(ctx, spec, graphs, atlases, quotients, blocks, total, workers)
}
