package experiments

import (
	"context"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/algorithms/coloring"
	"repro/internal/analytic"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/problems"
	"repro/internal/sweep"
)

// verifyColoring adapts the 3-colouring checker to the sweep hook.
func verifyColoring(g graph.Graph, a ids.Assignment, res *local.Result) error {
	return problems.Coloring{K: 3}.Verify(g, a, res.Outputs)
}

// e4 reproduces the upper-bound side of §3: Cole-Vishkin 3-colours the ring
// in O(log* n) for every vertex — with or without knowledge of the
// identifier space — so the average and maximum radius coincide (up to a
// constant) and stay minuscule across orders of magnitude of n.
func e4() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "3-colouring upper bound: Cole-Vishkin radius is O(log* n), avg ≈ max",
		Claim: "§3: \"it is possible to 3-colour the n-node ring in O(log* n) rounds even without the knowledge of n\"",
		Sweeps: func(cfg Config) ([]sweep.Spec, error) {
			defSizes := []int{16, 64, 256, 1024, 4096, 16384, 65536}
			cv := cycleSpec(cfg, defSizes, 1)
			cv.Alg = func(_ int, a ids.Assignment) local.ViewAlgorithm { return coloring.ForMaxID(a.MaxID()) }
			cv.Verify = verifyColoring
			uni := cycleSpec(cfg, defSizes, 1)
			uni.Alg = func(int, ids.Assignment) local.ViewAlgorithm { return coloring.Uniform{} }
			uni.Verify = verifyColoring
			return []sweep.Spec{cv, uni}, nil
		},
		Tabulate: func(cfg Config, results []*sweep.Result) (*Table, error) {
			cvRes, uniRes := results[0], results[1]
			t := &Table{
				Title:   "E4: Cole-Vishkin (known ID bits) and uniform variant (no knowledge)",
				Columns: []string{"n", "log*(n)", "cvMax", "cvAvg", "uniMax", "uniAvg", "verified"},
			}
			worstCV, worstUni := 0, 0
			for i, cv := range cvRes.Sizes {
				uni := uniRes.Sizes[i]
				worstCV = max(worstCV, cv.WorstMax.Max)
				worstUni = max(worstUni, uni.WorstMax.Max)
				t.AddRow(ci(cv.N), ci(analytic.LogStar(float64(cv.N))), ci(cv.WorstMax.Max), cf(cv.WorstAvg.Avg),
					ci(uni.WorstMax.Max), cf(uni.WorstAvg.Avg), cb(cv.Verified() && uni.Verified()))
			}
			t.AddNote("radii stay <= %d (CV) and <= %d (uniform) across 4 decades of n: the log* plateau", worstCV, worstUni)
			t.AddNote("avg/max ratio stays Θ(1): colouring does not average down (matches Theorem 1)")
			return t, nil
		},
	}
}

// e5 reproduces Theorem 1's construction: the adversarial permutation pi
// keeps the average radius of a 3-colouring algorithm at its Ω(log* n)
// floor; even the most favourable identifier arrangement cannot beat it.
// The favourable and random regimes are two sweeps sharing the seed. The
// adversarial row is built in Tabulate, because its one execution per size
// also yields the Lemma 3 constant; the builders run concurrently across
// sizes, which is where E5's wall-clock goes.
func e5() Experiment {
	defSizes := []int{64, 128, 256, 512}
	return Experiment{
		ID:    "E5",
		Title: "3-colouring lower bound: adversarial pi keeps the average at Ω(log* n)",
		Claim: "Theorem 1 and its slice construction (§3)",
		Sweeps: func(cfg Config) ([]sweep.Spec, error) {
			alg := func(int, ids.Assignment) local.ViewAlgorithm { return coloring.Uniform{} }
			// Favourable arrangement: sorted magnitudes cluster small
			// identifiers, maximising early phase-0 commitments.
			fav := cycleSpec(cfg, defSizes, 1)
			// One deterministic assignment per size: extra trials would be
			// byte-identical reruns.
			fav.Trials = 1
			fav.Alg = alg
			fav.Assign = assignFixed(func(n int) (ids.Assignment, error) { return ids.Identity(n), nil })
			rnd := cycleSpec(cfg, defSizes, 1)
			rnd.Trials = 1
			rnd.Alg = alg
			return []sweep.Spec{fav, rnd}, nil
		},
		Tabulate: func(cfg Config, results []*sweep.Result) (*Table, error) {
			favRes, rndRes := results[0], results[1]
			sizes := sizesOrDefault(cfg, defSizes)
			// The adversarial row: one Theorem-1 build per size, drawing from
			// the rng seed the engine gives that size's trial 0, and one
			// execution of the uniform colouring on the result.
			type adversarial struct {
				report   *adversary.Report
				avg      float64
				lemma3   float64
				verified bool
			}
			advs := make([]adversarial, len(sizes))
			if err := sweep.Map(context.Background(), cfg.Workers, len(sizes), func(i int) error {
				rng := rand.New(rand.NewSource(sweep.TrialSeed(cfg.Seed, i, 0)))
				pi, report, err := adversary.Builder{Alg: coloring.Uniform{}}.Build(sizes[i], rng)
				if err != nil {
					return err
				}
				c, err := graph.NewCycle(sizes[i])
				if err != nil {
					return err
				}
				res, err := local.RunView(c, pi, coloring.Uniform{})
				if err != nil {
					return err
				}
				advs[i] = adversarial{report: report, avg: res.AvgRadius(), verified: verifyColoring(c, pi, res) == nil}
				if r, ok := adversary.Lemma3Ratio(c, res.Radii); ok {
					advs[i].lemma3 = r
				}
				return nil
			}); err != nil {
				return nil, err
			}
			t := &Table{
				Title:   "E5: uniform 3-colouring under favourable / random / adversarial permutations",
				Columns: []string{"n", "favAvg", "rndAvg", "advAvg", "slices", "sliceR", "lemma3min", "verified"},
			}
			for i, adv := range advs {
				t.AddRow(ci(sizes[i]), cf(favRes.Sizes[i].WorstAvg.Avg), cf(rndRes.Sizes[i].WorstAvg.Avg),
					cf(adv.avg), ci(adv.report.Slices), ci(adv.report.TargetRadius), cf(adv.lemma3), cb(adv.verified))
			}
			t.AddNote("no arrangement pushes the average below the Ω(log* n) floor; the adversarial pi pins slice centres to radius >= R")
			t.AddNote("lemma3min is the empirical constant of Lemma 3 (avg radius near a radius-r vertex / r)")
			return t, nil
		},
	}
}
