package experiments

import (
	"context"
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
// complexity measures across graph families — one sweep per family.
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
		Sweeps: func(cfg Config) ([]sweep.Spec, error) {
			_, specs := e9Sweeps(cfg)
			return specs, nil
		},
		Tabulate: func(cfg Config, results []*sweep.Result) (*Table, error) {
			names, specs := e9Sweeps(cfg)
			// Rows run size-major over the families, then the clique row,
			// keeping the historical table layout.
			type cell struct{ k, i int }
			var rows []cell
			last := len(specs) - 1
			for i := range specs[0].Sizes {
				for k := 0; k < last; k++ {
					rows = append(rows, cell{k, i})
				}
			}
			rows = append(rows, cell{last, 0})
			// The diameters are a property of the instances alone: rebuild
			// each family's graphs from the seed, exactly as the engine
			// built them, and measure them across the worker pool.
			graphs := make([][]graph.Graph, len(specs))
			for k := range specs {
				var err error
				if graphs[k], err = sweep.Graphs(specs[k]); err != nil {
					return nil, err
				}
			}
			diams := make([]int, len(rows))
			if err := sweep.Map(context.Background(), cfg.Workers, len(rows), func(j int) error {
				diams[j] = graph.Diameter(graphs[rows[j].k][rows[j].i])
				return nil
			}); err != nil {
				return nil, err
			}

			t := &Table{
				Title:   "E9: pruning algorithm across graph families (random permutations)",
				Columns: []string{"family", "n", "diam", "worstMax", "worstAvg", "max/avg"},
			}
			for j, r := range rows {
				s := results[r.k].Sizes[r.i]
				ratio := 0.0
				if s.WorstAvg.Avg > 0 {
					ratio = float64(s.WorstMax.Max) / s.WorstAvg.Avg
				}
				t.AddRow(cs(names[r.k]), ci(s.N), ci(diams[j]), ci(s.WorstMax.Max), cf(s.WorstAvg.Avg), cf(ratio))
			}

			t.AddNote("cycle/path: avg grows with log n (linear ball growth)")
			t.AddNote("grid: avg stays O(1) — quadratic ball growth makes Σ P(local max at radius d) converge")
			t.AddNote("complete: both measures collapse to the diameter; no separation to speak of")
			return t, nil
		},
	}
}

// e9Sweeps builds one strictly verified pruning sweep per graph family,
// with the family names, the clique last. The grid family rounds every
// size up to the next square.
func e9Sweeps(cfg Config) (names []string, specs []sweep.Spec) {
	trials := trialsOrDefault(cfg, 3)
	sizes := sizesOrDefault(cfg, []int{256, 1024, 4096})
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
	families := []struct {
		name  string
		sizes []int
		build func(n int, rng *rand.Rand) (graph.Graph, error)
	}{
		{"cycle", sizes, func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) }},
		{"path", sizes, func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewPath(n) }},
		{"grid", gridSizes, func(n int, _ *rand.Rand) (graph.Graph, error) {
			side := gridSide(n)
			return graph.NewGrid(side, side)
		}},
		{"tree", sizes, func(n int, rng *rand.Rand) (graph.Graph, error) { return graph.NewRandomTree(n, rng) }},
		// One clique sweep: the degenerate diameter-1 extreme.
		{"complete", []int{256}, func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCompleteGraph(n) }},
	}
	for _, f := range families {
		names = append(names, f.name)
		specs = append(specs, sweep.Spec{
			Seed:      cfg.Seed,
			Sizes:     f.sizes,
			Trials:    trials,
			Workers:   cfg.Workers,
			NoKernels: cfg.NoKernels,
			Graph:     f.build,
			Alg:       func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} },
			Verify:    verifyLargestID,
			Strict:    true,
		})
	}
	return names, specs
}
