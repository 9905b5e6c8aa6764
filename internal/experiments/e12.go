package experiments

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/algorithms/largestid"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/sweep"
)

// e12Sizes resolves the cross-check's size sweep. Both sides must run, and
// the full side is n!-bounded, so the cap is exact.MaxFullEnumerationN
// regardless of Config.Quotient.
func e12Sizes(cfg Config) (sizes []int, clamped bool, err error) {
	return clampSizes(cfg, []int{5, 6, 7, 8}, exact.MaxFullEnumerationN)
}

// e12 is the symmetry-quotient acceptance gate: the same exhaustive cycle
// enumeration run twice — once over the full n! rank space, once over the
// n!/2n canonical representatives folded with orbit weight — and diffed
// field by field. The quotient's claim is not approximate agreement but
// BIT identity of every aggregate (totals, histogram, float summaries,
// extremal trial indices, which the quotient reports in full-rank
// coordinates); tabulation fails on the first divergent size. The
// experiment pins its own quotient split, so it rejects Config.Quotient —
// that flag would silently turn the full baseline into a second quotient
// run and the diff into a tautology.
func e12() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "Symmetry-quotient enumeration vs full n! fold: bit-identity",
		Claim: "orbit-weighted canonical folds reproduce the exact §2/§4 ground truth exactly, 2n× cheaper",
		Sweeps: func(cfg Config) ([]sweep.Spec, error) {
			if cfg.Quotient {
				return nil, fmt.Errorf("experiments: E12 pins its own quotient/full split; drop -quotient")
			}
			sizes, _, err := e12Sizes(cfg)
			if err != nil {
				return nil, err
			}
			base := sweep.Spec{
				Seed:       cfg.Seed,
				Sizes:      sizes,
				Exhaustive: true,
				Workers:    cfg.Workers,
				NoKernels:  cfg.NoKernels,
				Graph:      func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) },
				Alg:        func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} },
			}
			quot := base
			quot.Quotient = true
			return []sweep.Spec{base, quot}, nil
		},
		Tabulate: func(cfg Config, results []*sweep.Result) (*Table, error) {
			full, quot := results[0], results[1]
			_, clamped, err := e12Sizes(cfg)
			if err != nil {
				return nil, err
			}
			t := &Table{
				Title: "E12: quotient enumeration vs full n! fold",
				Columns: []string{"n", "perms", "reps", "speedup",
					"worstAvg", "meanAvg", "identical"},
			}
			for i := range full.Sizes {
				f, q := full.Sizes[i], quot.Sizes[i]
				n := f.N
				fact, err := ids.Factorial(n)
				if err != nil {
					return nil, err
				}
				reps := fact / uint64(2*n)
				same := reflect.DeepEqual(f, q)
				t.AddRow(ci(n), ci(f.Trials), ci(int64(reps)),
					cf(float64(f.Trials)/float64(reps)),
					cf(f.WorstAvg.Avg), cf(f.MeanAvg()), cb(same))
				if !same {
					return t, fmt.Errorf("E12: quotient aggregates diverge from the full fold at n=%d\nfull:     %+v\nquotient: %+v", n, f, q)
				}
			}
			t.AddNote("identical = reflect.DeepEqual on every SizeStats field: totals, histogram, float summaries, extremal full-rank trial indices")
			t.AddNote("speedup = n!/(n!/2n) = 2n executed representatives saved per orbit — the measured wall-clock gain is benchmarked in BenchmarkExactCycleQuotient*")
			if clamped {
				t.AddNote("sizes beyond exact.MaxFullEnumerationN=%d were dropped: the full-fold baseline must also run", exact.MaxFullEnumerationN)
			}
			return t, nil
		},
	}
}
