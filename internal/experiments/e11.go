package experiments

import (
	"math"

	"repro/internal/algorithms/largestid"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/measure"
	"repro/internal/sweep"
)

// e11 is the implicit-scale extension of E2's average-radius claim: the
// pruning algorithm's sampled average radius keeps its Θ(log n) growth at
// n = 10^5..10^7 — two orders of magnitude past what a materialised atlas
// or adjacency structure fits in memory. The sweep therefore runs its
// kernels on the implicit backend (closed-form ball synthesis, O(workers)
// memory); -nokernels runs the same table on the ball builder, which is
// the identity CI checks at small n.
//
// No exact worst permutation at these sizes: reconstructing it is O(n²)
// via the recurrence, so E11 reports Monte-Carlo sampling only — the
// worst-over-samples average, against ln n.
func e11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Implicit scale: sampled average radius stays Θ(log n) at n = 10^5..10^7",
		Claim: "§2: \"the average radius is logarithmic in n\" — extended to sizes served by closed-form ball synthesis",
		Sweeps: func(cfg Config) ([]sweep.Spec, error) {
			spec := cycleSpec(cfg, []int{100000, 1000000, 10000000}, 3)
			// The atlas would materialise O(n · ball) state per size.
			spec.Backend = sweep.BackendImplicit
			spec.Alg = func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} }
			spec.Verify = verifyLargestID
			return []sweep.Spec{spec}, nil
		},
		Tabulate: func(cfg Config, results []*sweep.Result) (*Table, error) {
			res := results[0]
			t := &Table{
				Title:   "E11: pruning algorithm at implicit scale, sampled average measure",
				Columns: []string{"n", "trials", "meanAvg", "worstAvg", "ln n", "median", "p90", "verified"},
			}
			var ns []int
			var avgs []float64
			for _, s := range res.Sizes {
				worst := s.WorstAvg
				t.AddRow(ci(s.N), ci(s.Trials), cf(s.MeanAvg()), cf(worst.Avg),
					cf(math.Log(float64(s.N))), cf(worst.Median), cf(worst.P90), cb(s.Verified()))
				ns = append(ns, s.N)
				avgs = append(avgs, worst.Avg)
			}
			if fit, err := measure.FitAgainstLog(ns, avgs); err == nil {
				t.AddNote("log fit of worstAvg vs ln n: slope=%.4f, R2=%.5f (Θ(log n) ⇔ stable slope, R2≈1)", fit.Slope, fit.R2)
			}
			t.AddNote("balls synthesized from closed forms: no adjacency, no atlas — sweep memory is O(workers), not O(n · ball)")
			return t, nil
		},
	}
}
