package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/sweep"
)

// Config tunes an experiment run. The zero value plus a seed gives the
// defaults used in EXPERIMENTS.md; benchmarks use reduced sizes. The JSON
// tags make a Config part of a leased run's identity (leased.go): two
// executors cooperating on one table must present equal result-affecting
// fields (Seed, Sizes, Trials, ... — Workers and NoKernels never change
// bytes and are ignored by the comparison).
type Config struct {
	// Seed drives all randomness; equal seeds reproduce tables exactly,
	// independent of Workers.
	Seed int64 `json:"seed"`
	// Sizes overrides the experiment's default n sweep when non-empty.
	Sizes []int `json:"sizes,omitempty"`
	// Trials is the number of sampled permutations per size (default
	// experiment-specific).
	Trials int `json:"trials,omitempty"`
	// Workers bounds the sweep worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// NoKernels pins every run to the per-vertex view path, served by the
	// ball builder, instead of the flat decision kernels. Tables are
	// byte-identical either way; it exists for A/B profiling and as the
	// kernels' oracle (avgbench -nokernels).
	NoKernels bool `json:"noKernels,omitempty"`
	// Quotient routes exhaustive sweeps through symmetry-quotient
	// enumeration: only canonical orbit representatives execute, each
	// folded with orbit weight, and the merged aggregates are bit-for-bit
	// identical to the full n! fold. Unlike the pure perf toggles it stays
	// part of the config identity: the plan's trial space becomes the
	// canonical rank space (lease runs carve different coordinates), and it
	// lifts E10's feasible size cap from
	// exact.MaxFullEnumerationN to exact.MaxEnumerationN. Sampled sweeps
	// are unaffected (avgbench -quotient).
	Quotient bool `json:"quotient,omitempty"`
}

// Experiment is one reproducible claim of the paper, in one shape: Sweeps
// lists its seeded sweeps and Tabulate folds their merged aggregates into
// the table. Run, the leased path (RunLeasedSweeps + MergeLeased) and
// cmd/sweepmerge all go through that pair, so every experiment runs,
// leases, resumes and merges the same way.
type Experiment struct {
	// ID is the index key (e.g. "E2").
	ID string
	// Title summarises the claim under test.
	Title string
	// Claim cites the paper location the experiment reproduces.
	Claim string
	// Sweeps exposes the experiment's sweeps as plain sweep.Specs — the
	// PLAN lease executors split and resume (see RunLeasedSweeps). Building
	// specs must be pure: no randomness, no execution. An experiment whose
	// work is not a permutation sweep returns no specs.
	Sweeps func(cfg Config) ([]sweep.Spec, error)
	// Tabulate folds the merged per-sweep aggregates (one Result per
	// Sweeps entry, same order) into the final table. It must depend on cfg
	// and the aggregates alone, so a leased run collected from a store
	// renders the bytes a single process prints. It may do deterministic
	// work from cfg alone: E3 and E8 compute their whole table here, E5 its
	// adversarial row and E9 its diameters, so a leased run of them stores
	// only what the sweeps produce and the merge does the rest.
	Tabulate func(cfg Config, res []*sweep.Result) (*Table, error)
}

// Run executes the experiment in this process: RunSweeps, then Tabulate —
// the pipeline a leased run reproduces across executors. The context
// cancels the sweeps; a cancelled context fails the run before any work,
// including the work an experiment does in Tabulate.
func (e Experiment) Run(ctx context.Context, cfg Config) (*Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	results, err := RunSweeps(ctx, e, cfg, sweep.Shard{}, "")
	if err != nil {
		return nil, err
	}
	return e.Tabulate(cfg, results)
}

// Shardable reports whether the experiment exposes the Sweeps/Tabulate
// split. Every registered experiment does; the method remains because
// bench/avgperf still branches on it.
func (e Experiment) Shardable() bool { return e.Sweeps != nil && e.Tabulate != nil }

// registry holds all experiments keyed by ID.
var registry = buildRegistry()

func buildRegistry() map[string]Experiment {
	all := []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(), e9(), e10(), e11(), e12(),
	}
	m := make(map[string]Experiment, len(all))
	for _, e := range all {
		m[e.ID] = e
	}
	return m
}

// RunSweeps executes every sweep of an experiment in this process and
// returns the per-sweep aggregates, in Sweeps order. Splitting or resuming
// a run is RunLeasedSweeps' job: shard must be the zero value and
// checkpointPath empty, and anything else is rejected.
func RunSweeps(ctx context.Context, e Experiment, cfg Config, shard sweep.Shard, checkpointPath string) ([]*sweep.Result, error) {
	if !shard.IsZero() || checkpointPath != "" {
		return nil, fmt.Errorf("experiments: %s: RunSweeps runs the whole trial space in one process; split or resume a run with RunLeasedSweeps over a store", e.ID)
	}
	specs, err := expandSweeps(e, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s sweeps: %w", e.ID, err)
	}
	results := make([]*sweep.Result, len(specs))
	for k := range specs {
		if results[k], err = sweep.Run(ctx, specs[k]); err != nil {
			return nil, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
	}
	return results, nil
}

// UnknownExperimentError reports a lookup of an unregistered experiment ID
// and carries the registered IDs so callers (cmd/avgbench) can fail fast
// with the full menu instead of an opaque message.
type UnknownExperimentError struct {
	// ID is the key that missed.
	ID string
	// Known lists the registered IDs in natural order.
	Known []string
}

func (e *UnknownExperimentError) Error() string {
	return fmt.Sprintf("experiments: unknown experiment %q (registered: %s)",
		e.ID, strings.Join(e.Known, ", "))
}

// Get returns the experiment with the given ID; misses are typed
// *UnknownExperimentError listing every registered ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		known := make([]string, 0, len(registry))
		for _, x := range All() {
			known = append(known, x.ID)
		}
		return Experiment{}, &UnknownExperimentError{ID: id, Known: known}
	}
	return e, nil
}

// All returns every experiment in natural ID order (E2 before E10 — plain
// string order would interleave them).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// sizesOrDefault picks the configured sweep or the experiment default.
func sizesOrDefault(cfg Config, def []int) []int {
	if len(cfg.Sizes) > 0 {
		return cfg.Sizes
	}
	return def
}

// trialsOrDefault picks the configured trial count or the default.
func trialsOrDefault(cfg Config, def int) int {
	if cfg.Trials > 0 {
		return cfg.Trials
	}
	return def
}

// cycleSpec is the spec skeleton shared by the ring experiments: sizes and
// trials resolved against the experiment defaults, cycle instances, and the
// config's seed and worker pool.
func cycleSpec(cfg Config, defSizes []int, defTrials int) sweep.Spec {
	return sweep.Spec{
		Seed:      cfg.Seed,
		Sizes:     sizesOrDefault(cfg, defSizes),
		Trials:    trialsOrDefault(cfg, defTrials),
		Workers:   cfg.Workers,
		NoKernels: cfg.NoKernels,
		Graph:     func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) },
	}
}

// expandSweeps is how every runner obtains an experiment's specs: it calls
// Sweeps and then applies the config's cross-cutting quotient knob
// uniformly, so every experiment honours -quotient without forwarding it.
// Quotient only lands on exhaustive sweeps: elsewhere the flag is a no-op
// rather than a conflict.
func expandSweeps(e Experiment, cfg Config) ([]sweep.Spec, error) {
	specs, err := e.Sweeps(cfg)
	if err != nil {
		return nil, err
	}
	for k := range specs {
		if cfg.Quotient && specs[k].Exhaustive {
			specs[k].Quotient = true
		}
	}
	return specs, nil
}

// assignFixed adapts a deterministic per-size assignment constructor into a
// sweep assignment source.
func assignFixed(build func(n int) (ids.Assignment, error)) func(int, int, int, *rand.Rand) (ids.Assignment, error) {
	return func(_, n, _ int, _ *rand.Rand) (ids.Assignment, error) {
		return build(n)
	}
}
