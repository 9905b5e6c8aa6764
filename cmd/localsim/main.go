// Command localsim runs one LOCAL-model algorithm on one instance and
// prints the per-vertex radii and outputs — the microscope view of what the
// experiment tables aggregate.
//
// Usage:
//
//	localsim -n 32 -alg pruning -ids random -seed 3
//	localsim -n 64 -alg cv -ids worst
//	localsim -n 24 -alg mis -engine message
//	localsim -n 9 -alg pruning -exact   # place the run in the exact n! distribution
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/algorithms/mis"
	"repro/internal/analytic"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/measure"
	"repro/internal/problems"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "localsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("localsim", flag.ContinueOnError)
	n := fs.Int("n", 32, "cycle size")
	algName := fs.String("alg", "pruning", "algorithm: pruning|fullview|cv|uniform|greedy|mis|changroberts|cvmsg")
	idsName := fs.String("ids", "random", "identifiers: random|identity|reversed|bitrev|worst")
	seed := fs.Int64("seed", 1, "random seed")
	engine := fs.String("engine", "view", "engine: view|message (message uses the gather adapter)")
	quiet := fs.Bool("q", false, "suppress the per-vertex table")
	exactFlag := fs.Bool("exact", false, "also enumerate ALL n! permutations through the sharded engine and place this run in the exact distribution (view algorithms, n <= 12)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Checked before dispatch: native message algorithms ignore -engine.
	if *engine != "view" && *engine != "message" {
		return fmt.Errorf("unknown engine %q", *engine)
	}

	c, err := graph.NewCycle(*n)
	if err != nil {
		return err
	}
	a, err := buildIDs(*idsName, *n, *seed)
	if err != nil {
		return err
	}

	var res *local.Result
	var problem problems.Problem
	if msgAlg, p, ok := buildMessageAlg(*algName, a); ok {
		// Native message algorithms always run on the message engine.
		problem = p
		res, err = local.RunMessage(c, a, msgAlg)
	} else {
		var alg local.ViewAlgorithm
		alg, problem, err = buildAlg(*algName, a)
		if err != nil {
			return err
		}
		if *engine == "view" {
			res, err = local.RunView(c, a, alg)
		} else {
			res, err = local.RunMessage(c, a, local.NewGather(alg))
		}
	}
	if err != nil {
		return err
	}

	if !*quiet {
		fmt.Println("vertex  id  radius  output")
		for v := 0; v < *n; v++ {
			fmt.Printf("%6d  %2d  %6d  %6d\n", v, a[v], res.Radii[v], res.Outputs[v])
		}
	}
	s := measure.Summarize(res.Radii)
	fmt.Printf("algorithm=%s n=%d max=%d avg=%.3f median=%.1f p90=%.1f\n",
		res.Algorithm, *n, s.Max, s.Avg, s.Median, s.P90)
	if problem != nil {
		if err := problem.Verify(c, a, res.Outputs); err != nil {
			return fmt.Errorf("output INVALID: %w", err)
		}
		fmt.Printf("output verified against %s\n", problem.Name())
	}
	if *exactFlag {
		if err := printExact(c, *algName, s); err != nil {
			return err
		}
	}
	return nil
}

// printExact enumerates every identifier permutation of c through the
// sharded engine and reports where the observed radius sum sits in the
// exact distribution — the microscope view of what E10 tabulates.
func printExact(c graph.Cycle, algName string, s measure.Summary) error {
	builder, ok := exactBuilder(algName)
	if !ok {
		return fmt.Errorf("-exact needs a view algorithm, not %q", algName)
	}
	st, err := exact.Distribution(context.Background(), c, builder, exact.Options{})
	if err != nil {
		return fmt.Errorf("-exact: %w", err)
	}
	fmt.Printf("exact over %d permutations: bestAvg=%.3f meanAvg=%.3f worstAvg=%.3f radiusMedian=%.1f radiusP90=%.1f\n",
		st.Perms, st.BestAvg(), st.MeanAvg(), st.WorstAvg(), st.Quantile(0.5), st.Quantile(0.9))
	fmt.Printf("this run's radius sum %d sits in [best %d, worst %d]\n", s.Sum, st.BestSum, st.WorstSum)
	return nil
}

// exactBuilder maps a view-algorithm name to the per-permutation
// constructor exact.Distribution enumerates with.
func exactBuilder(name string) (exact.Algorithm, bool) {
	switch name {
	case "pruning":
		return func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} }, true
	case "fullview":
		return func(int, ids.Assignment) local.ViewAlgorithm { return largestid.FullView{} }, true
	case "cv":
		return func(_ int, a ids.Assignment) local.ViewAlgorithm { return coloring.ForMaxID(a.MaxID()) }, true
	case "uniform":
		return func(int, ids.Assignment) local.ViewAlgorithm { return coloring.Uniform{} }, true
	case "greedy":
		return func(int, ids.Assignment) local.ViewAlgorithm { return coloring.FullViewGreedy{} }, true
	case "mis":
		return func(_ int, a ids.Assignment) local.ViewAlgorithm {
			return mis.FromColoring{Base: coloring.ForMaxID(a.MaxID())}
		}, true
	default:
		return nil, false
	}
}

func buildIDs(name string, n int, seed int64) (ids.Assignment, error) {
	switch name {
	case "random":
		return ids.Random(n, rand.New(rand.NewSource(seed))), nil
	case "identity":
		return ids.Identity(n), nil
	case "reversed":
		return ids.Reversed(n), nil
	case "bitrev":
		return ids.BitReversal(n), nil
	case "worst":
		perm, err := analytic.WorstCyclePerm(n)
		if err != nil {
			return nil, err
		}
		return ids.FromPerm(perm)
	default:
		return nil, fmt.Errorf("unknown ids scheme %q", name)
	}
}

// buildMessageAlg resolves algorithms that exist natively in the message
// model (small messages, no gather adapter).
func buildMessageAlg(name string, a ids.Assignment) (local.MessageAlgorithm, problems.Problem, bool) {
	switch name {
	case "changroberts":
		return largestid.ChangRoberts{}, problems.LargestID{}, true
	case "cvmsg":
		bits := coloring.ForMaxID(a.MaxID()).IDBits
		return coloring.ColeVishkinMessage{IDBits: bits}, problems.Coloring{K: 3}, true
	default:
		return nil, nil, false
	}
}

func buildAlg(name string, a ids.Assignment) (local.ViewAlgorithm, problems.Problem, error) {
	switch name {
	case "pruning":
		return largestid.Pruning{}, problems.LargestID{}, nil
	case "fullview":
		return largestid.FullView{}, problems.LargestID{}, nil
	case "cv":
		return coloring.ForMaxID(a.MaxID()), problems.Coloring{K: 3}, nil
	case "uniform":
		return coloring.Uniform{}, problems.Coloring{K: 3}, nil
	case "greedy":
		return coloring.FullViewGreedy{}, problems.Coloring{K: 3}, nil
	case "mis":
		return mis.FromColoring{Base: coloring.ForMaxID(a.MaxID())}, problems.MIS{}, nil
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", name)
	}
}
