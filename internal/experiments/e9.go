package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/sweep"
)

// e9 explores the second further-work question of §4: "we only consider
// the cycle topology, and results for more general graphs are missing".
// The pruning algorithm is topology-agnostic, so we measure both
// complexity measures across graph families — one sharded sweep per family.
// The emerging picture: the separation is governed by ball growth — on
// linearly growing balls (cycle, path) the average is Θ(log n); on
// polynomially growing balls (grid) the probability of being a d-ball
// maximum decays like 1/|B(d)|, the expected radius series converges, and
// the average is O(1); on expanders/cliques everything collapses to the
// diameter.
func e9() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Largest ID beyond the cycle: ball growth governs the separation",
		Claim: "§4 further work: \"results for more general graphs are missing\"",
		Run: func(ctx context.Context, cfg Config) (*Table, error) {
			trials := trialsOrDefault(cfg, 3)
			sizes := sizesOrDefault(cfg, []int{256, 1024, 4096})

			type family struct {
				name  string
				sizes []int
				build func(n int, rng *rand.Rand) (graph.Graph, error)
			}
			gridSide := func(n int) int {
				side := 1
				for side*side < n {
					side++
				}
				return side
			}
			gridSizes := make([]int, len(sizes))
			for i, n := range sizes {
				s := gridSide(n)
				gridSizes[i] = s * s
			}
			families := []family{
				{"cycle", sizes, func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) }},
				{"path", sizes, func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewPath(n) }},
				{"grid", gridSizes, func(n int, _ *rand.Rand) (graph.Graph, error) {
					side := gridSide(n)
					return graph.NewGrid(side, side)
				}},
				{"tree", sizes, func(n int, rng *rand.Rand) (graph.Graph, error) { return graph.NewRandomTree(n, rng) }},
				// One clique sweep: the degenerate diameter-1 extreme.
				{"complete", []int{256}, func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewComplete(n) }},
			}

			type familyOut struct {
				stats []sweep.SizeStats
				diams []int
			}
			outs := make([]familyOut, len(families))
			for fi, f := range families {
				diams := make([]int, len(f.sizes))
				spec := sweep.Spec{
					Seed:      cfg.Seed,
					Sizes:     f.sizes,
					Trials:    trials,
					Workers:   cfg.Workers,
					NoKernels: cfg.NoKernels,
					Graph:     f.build,
					Alg:       func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} },
					Verify:    verifyLargestID,
					Strict:    true,
					Observe: func(sizeIdx, trial int, g graph.Graph, _ ids.Assignment, _ *local.Result) {
						if trial == 0 {
							diams[sizeIdx] = graph.Diameter(g)
						}
					},
				}
				res, err := sweep.Run(ctx, configSpec(spec, cfg))
				if err != nil {
					return nil, fmt.Errorf("E9 %s: %w", f.name, err)
				}
				outs[fi] = familyOut{stats: res.Sizes, diams: diams}
			}

			t := &Table{
				Title:   "E9: pruning algorithm across graph families (random permutations)",
				Columns: []string{"family", "n", "diam", "worstMax", "worstAvg", "max/avg"},
			}
			addRow := func(f family, out familyOut, i int) {
				s := out.stats[i]
				worstMax := s.WorstMax.Max
				worstAvg := s.WorstAvg.Avg
				ratio := 0.0
				if worstAvg > 0 {
					ratio = float64(worstMax) / worstAvg
				}
				t.AddRow(cs(f.name), ci(s.N), ci(out.diams[i]), ci(worstMax), cf(worstAvg), cf(ratio))
			}
			// Size-major over the shared sweep, then the clique row, keeping
			// the historical table layout.
			for i := range sizes {
				for fi, f := range families {
					if f.name == "complete" {
						continue
					}
					addRow(f, outs[fi], i)
				}
			}
			last := len(families) - 1
			addRow(families[last], outs[last], 0)

			t.AddNote("cycle/path: avg grows with log n (linear ball growth)")
			t.AddNote("grid: avg stays O(1) — quadratic ball growth makes Σ P(local max at radius d) converge")
			t.AddNote("complete: both measures collapse to the diameter; no separation to speak of")
			return t, nil
		},
	}
}
