package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"repro/internal/algorithms/coloring"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/problems"
	"repro/internal/sweep"
)

// sweepWorkers is the GOMAXPROCS of every child process and the default
// sweep worker count of a workload: the reference machine has 2 cores.
const sweepWorkers = 2

// leaseGrains is the grain count per size of the leased workload's lease
// plan: one trial per grain, so claims, scans and completion records, not
// decisions, dominate the run.
const leaseGrains = 300

// workload is one input set of the benchmark: a registered experiment and
// the config it runs at. The seed comes from the command line. Trial counts
// are sized so that one warm iteration takes about 0.6–1.5 s on a 2-core
// machine. BENCHMARK.json says why each workload is in the set.
type workload struct {
	name string
	exp  string
	// cfg is the experiment config; a zero Workers means sweepWorkers.
	cfg experiments.Config
	// leased runs the experiment as two lease executors of one worker each
	// over a fresh DirStore, then merges the store, instead of one plain
	// run of two workers.
	leased bool
	// mirror rebuilds the sweeps of an experiment that runs them inline
	// (custom Run) and so does not expose them; the traced replay and the
	// decision count need them.
	mirror func(experiments.Config) []sweep.Spec
}

var workloads = []workload{
	{name: "sampled-atlas", exp: "E6",
		cfg: experiments.Config{Sizes: []int{1024, 4096, 16384}, Trials: 200}},
	{name: "implicit-1e6", exp: "E11",
		cfg: experiments.Config{Sizes: []int{1000000}, Trials: 5}},
	// One worker: two workers contend on the sweep context's lock once per
	// representative, and how badly swings by 30% with other load on the
	// machine. The traced pass still times both (sweep.speedup_w2).
	{name: "exact-quotient", exp: "E10",
		cfg: experiments.Config{Sizes: []int{11}, Trials: 200, Quotient: true, Workers: 1}},
	{name: "leased-dirstore", exp: "E6", leased: true,
		cfg: experiments.Config{Sizes: []int{1024, 4096}, Trials: 300}},
	{name: "colouring-view", exp: "E4", mirror: e4Sweeps,
		cfg: experiments.Config{Sizes: []int{16384, 65536}, Trials: 3}},
}

// workloadNamed looks a workload up by name.
func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// config returns the workload's experiment config at seed.
func (w workload) config(seed int64) experiments.Config {
	cfg := w.cfg
	cfg.Seed = seed
	if cfg.Workers == 0 {
		cfg.Workers = sweepWorkers
	}
	return cfg
}

// run executes one untraced iteration at seed and returns the rendered
// table. store, when non-nil, wraps the leased workload's DirStore.
func (w workload) run(ctx context.Context, seed int64, store func(sweep.Store) sweep.Store) (string, sweep.LeaseStats, error) {
	e, err := experiments.Get(w.exp)
	if err != nil {
		return "", sweep.LeaseStats{}, err
	}
	cfg := w.config(seed)
	if w.leased {
		return runLeased(ctx, e, cfg, store)
	}
	t, err := e.Run(ctx, cfg)
	if err != nil {
		return "", sweep.LeaseStats{}, err
	}
	return t.Render(), sweep.LeaseStats{}, nil
}

// runLeased runs e as two in-process lease executors of one worker each
// over a fresh DirStore in a temporary directory, merges the store into the
// table, and removes the directory.
func runLeased(ctx context.Context, e experiments.Experiment, cfg experiments.Config, wrap func(sweep.Store) sweep.Store) (string, sweep.LeaseStats, error) {
	var total sweep.LeaseStats
	dir, err := os.MkdirTemp("", "avgperf-store-")
	if err != nil {
		return "", total, err
	}
	defer os.RemoveAll(dir)
	ds, err := sweep.NewDirStore(dir)
	if err != nil {
		return "", total, err
	}
	var st sweep.Store = ds
	if wrap != nil {
		st = wrap(ds)
	}
	cfg.Workers = 1
	var (
		wg    sync.WaitGroup
		stats [2]sweep.LeaseStats
		errs  [2]error
	)
	for i := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := sweep.LeaseOptions{Worker: fmt.Sprintf("x%d", i), GrainsPerSize: leaseGrains}
			stats[i], errs[i] = experiments.RunLeasedSweeps(ctx, e, cfg, st, opts)
		}()
	}
	wg.Wait()
	for _, s := range stats {
		total.Add(s)
	}
	if err := errors.Join(errs[:]...); err != nil {
		return "", total, err
	}
	t, err := experiments.MergeLeased(e, cfg, st)
	if err != nil {
		return "", total, err
	}
	return t.Render(), total, nil
}

// sweeps returns the sweep specs one iteration executes, with the config's
// quotient knob applied the way the experiments package applies it: only
// exhaustive sweeps enumerate by orbit representative.
func (w workload) sweeps(seed int64) ([]sweep.Spec, error) {
	cfg := w.config(seed)
	if w.mirror != nil {
		return w.mirror(cfg), nil
	}
	e, err := experiments.Get(w.exp)
	if err != nil {
		return nil, err
	}
	if e.Sweeps == nil {
		return nil, fmt.Errorf("%s runs its sweeps inline; the workload needs a mirror", w.exp)
	}
	specs, err := e.Sweeps(cfg)
	if err != nil {
		return nil, err
	}
	for k := range specs {
		specs[k].Quotient = cfg.Quotient && specs[k].Exhaustive
	}
	return specs, nil
}

// decisions counts the vertex decisions one iteration settles: n per
// sampled trial, and n·n! per exhaustively enumerated size (a quotient
// representative settles its whole orbit).
func (w workload) decisions(seed int64) (int64, error) {
	specs, err := w.sweeps(seed)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range specs {
		for _, n := range s.Sizes {
			perms := int64(s.Trials)
			if s.Exhaustive {
				f, err := ids.Factorial(n)
				if err != nil {
					return 0, err
				}
				perms = int64(f)
			}
			total += int64(n) * perms
		}
	}
	return total, nil
}

// e4Sweeps mirrors experiment E4's two inline sweeps: Cole–Vishkin with
// known identifier bits, then the uniform variant, both verified as proper
// 3-colourings.
func e4Sweeps(cfg experiments.Config) []sweep.Spec {
	cv := sweep.Spec{
		Seed:    cfg.Seed,
		Sizes:   cfg.Sizes,
		Trials:  cfg.Trials,
		Workers: cfg.Workers,
		Graph:   func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) },
		Alg:     func(_ int, a ids.Assignment) local.ViewAlgorithm { return coloring.ForMaxID(a.MaxID()) },
		Verify: func(g graph.Graph, a ids.Assignment, res *local.Result) error {
			return problems.Coloring{K: 3}.Verify(g, a, res.Outputs)
		},
	}
	uni := cv
	uni.Alg = func(int, ids.Assignment) local.ViewAlgorithm { return coloring.Uniform{} }
	return []sweep.Spec{cv, uni}
}

// digest is the SHA-256 of a rendered table, the benchmark's output check.
func digest(table string) string {
	sum := sha256.Sum256([]byte(table))
	return hex.EncodeToString(sum[:])
}
