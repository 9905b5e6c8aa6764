package experiments

import (
	"math"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/algorithms/mis"
	"repro/internal/analytic"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/measure"
	"repro/internal/sweep"
)

// e6 explores the further-work question of §4: the EXPECTED average radius
// under uniformly random identifier permutations, compared with the
// worst-case average of E2. Both are Θ(log n) for largest ID, with the
// expectation tracking the harmonic number. The expectation is exactly the
// sweep's streaming mean — no per-trial storage.
func e6() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Largest ID: expectation over random permutations vs worst case",
		Claim: "§4 further work: \"study the expectancy of the running time ... identifiers taken uniformly at random\"",
		Sweeps: func(cfg Config) ([]sweep.Spec, error) {
			spec := cycleSpec(cfg, []int{16, 64, 256, 1024, 4096}, 20)
			spec.Alg = func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} }
			return []sweep.Spec{spec}, nil
		},
		Tabulate: func(cfg Config, results []*sweep.Result) (*Table, error) {
			res := results[0]
			t := &Table{
				Title:   "E6: pruning algorithm, E[avg radius] vs worst-case avg",
				Columns: []string{"n", "meanAvg", "H(n)", "worstAvg", "mean/worst", "meanMax", "n/2"},
			}
			ns := make([]int, 0, len(res.Sizes))
			means := make([]float64, 0, len(res.Sizes))
			for i := range res.Sizes {
				s := &res.Sizes[i]
				worst, err := analytic.WorstCycleSum(s.N)
				if err != nil {
					return nil, err
				}
				worstAvg := float64(worst) / float64(s.N)
				t.AddRow(ci(s.N), cf(s.MeanAvg()), cf(analytic.Harmonic(s.N)), cf(worstAvg),
					cf(s.MeanAvg()/worstAvg), cf(s.MeanMax()), ci(s.N/2))
				ns = append(ns, s.N)
				means = append(means, s.MeanAvg())
			}
			if fit, err := measure.FitAgainstLog(ns, means); err == nil {
				t.AddNote("log fit of meanAvg vs ln n: slope=%.4f, R2=%.5f — expectation is Θ(log n) too", fit.Slope, fit.R2)
			}
			t.AddNote("meanMax ≈ n/2 always: the maximum vertex pays the linear price under every permutation")
			return t, nil
		},
	}
}

// e7Entries are E7's algorithms, one sweep each, grouped by the problem
// they solve.
var e7Entries = []struct {
	problem string
	alg     func(a ids.Assignment) local.ViewAlgorithm
}{
	{"largestID", func(ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} }},
	{"3-coloring", func(a ids.Assignment) local.ViewAlgorithm { return coloring.ForMaxID(a.MaxID()) }},
	{"3-coloring", func(ids.Assignment) local.ViewAlgorithm { return coloring.Uniform{} }},
	{"MIS", func(a ids.Assignment) local.ViewAlgorithm {
		return mis.FromColoring{Base: coloring.ForMaxID(a.MaxID())}
	}},
}

// e7 addresses the characterisation question of §4: for which problems do
// the two measures separate? Largest ID separates exponentially; colouring
// and MIS do not separate at all. One sweep per algorithm; the sweeps share
// the seed, so every algorithm sees the same identifier permutation at each
// size — the same controlled comparison the sequential loop used to make.
func e7() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Problem characterisation: max/avg separation by problem",
		Claim: "§4: \"It would be interesting to characterise the problems of the first and second types\"",
		Sweeps: func(cfg Config) ([]sweep.Spec, error) {
			specs := make([]sweep.Spec, len(e7Entries))
			for k, entry := range e7Entries {
				spec := cycleSpec(cfg, []int{64, 256, 1024, 4096}, 1)
				// One permutation per size: E7 compares the algorithms on
				// one instance, not worst cases over many.
				spec.Trials = 1
				spec.Alg = func(_ int, a ids.Assignment) local.ViewAlgorithm { return entry.alg(a) }
				specs[k] = spec
			}
			return specs, nil
		},
		Tabulate: func(cfg Config, results []*sweep.Result) (*Table, error) {
			t := &Table{
				Title:   "E7: max vs avg radius per problem (random permutations)",
				Columns: []string{"n", "problem", "algorithm", "max", "avg", "max/avg"},
			}
			ratios := map[string][]float64{}
			for i := range results[0].Sizes {
				for k, entry := range e7Entries {
					s := results[k].Sizes[i]
					ratio := math.Inf(1)
					if s.WorstAvg.Avg > 0 {
						ratio = float64(s.WorstMax.Max) / s.WorstAvg.Avg
					}
					// Algorithm names read only MaxID, which is n-1 for every
					// permutation of [0,n), so the identity names them all.
					name := entry.alg(ids.Identity(s.N)).Name()
					t.AddRow(ci(s.N), cs(entry.problem), cs(name), ci(s.WorstMax.Max), cf(s.WorstAvg.Avg), cf(ratio))
					ratios[entry.problem] = append(ratios[entry.problem], ratio)
				}
			}
			for _, problem := range []string{"largestID", "3-coloring", "MIS"} {
				rs := ratios[problem]
				if len(rs) < 2 {
					continue
				}
				growth := rs[len(rs)-1] / rs[0]
				kind := "second type (avg ~ max)"
				if growth > 4 {
					kind = "FIRST type (avg << max)"
				}
				t.AddNote("%s: max/avg ratio grew %.1fx across the sweep — %s", problem, growth, kind)
			}
			return t, nil
		},
	}
}
