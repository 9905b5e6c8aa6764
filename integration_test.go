package repro

import (
	"math/rand"
	"testing"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/algorithms/mis"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/linial"
	"repro/internal/local"
	"repro/internal/problems"
)

// TestIntegrationMatrix runs every algorithm on every topology it supports,
// end to end through the view engine, with verified outputs — the "does
// the whole system hang together" sweep.
func TestIntegrationMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(90))

	rings := []graph.Graph{graph.MustCycle(5), graph.MustCycle(24), graph.MustCycle(97)}
	tree, err := graph.NewRandomTree(30, rng)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.NewGrid(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	anyTopology := append(append([]graph.Graph{}, rings...), graph.MustPath(19), tree, grid)

	type entry struct {
		name    string
		graphs  []graph.Graph
		alg     func(a ids.Assignment) local.ViewAlgorithm
		problem problems.Problem
	}
	cases := []entry{
		{
			name:    "pruning",
			graphs:  anyTopology,
			alg:     func(ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} },
			problem: problems.LargestID{},
		},
		{
			name:    "fullview",
			graphs:  anyTopology,
			alg:     func(ids.Assignment) local.ViewAlgorithm { return largestid.FullView{} },
			problem: problems.LargestID{},
		},
		{
			name:    "colevishkin",
			graphs:  rings,
			alg:     func(a ids.Assignment) local.ViewAlgorithm { return coloring.ForMaxID(a.MaxID()) },
			problem: problems.Coloring{K: 3},
		},
		{
			name:    "uniform",
			graphs:  rings,
			alg:     func(ids.Assignment) local.ViewAlgorithm { return coloring.Uniform{} },
			problem: problems.Coloring{K: 3},
		},
		{
			name:    "greedy",
			graphs:  anyTopology,
			alg:     func(ids.Assignment) local.ViewAlgorithm { return coloring.FullViewGreedy{} },
			problem: problems.Coloring{K: 5}, // grid max degree 4
		},
		{
			name:   "mis",
			graphs: rings,
			alg: func(a ids.Assignment) local.ViewAlgorithm {
				return mis.FromColoring{Base: coloring.ForMaxID(a.MaxID())}
			},
			problem: problems.MIS{},
		},
		{
			name:   "misGreedy",
			graphs: anyTopology,
			alg: func(ids.Assignment) local.ViewAlgorithm {
				return mis.FromColoring{Base: coloring.FullViewGreedy{}}
			},
			problem: problems.MIS{},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for gi, g := range tc.graphs {
				a := ids.Random(g.N(), rng)
				res, err := local.RunView(g, a, tc.alg(a))
				if err != nil {
					t.Fatalf("graph %d (n=%d): %v", gi, g.N(), err)
				}
				if err := tc.problem.Verify(g, a, res.Outputs); err != nil {
					t.Fatalf("graph %d (n=%d): output rejected: %v", gi, g.N(), err)
				}
				if res.MaxRadius() < 0 || res.AvgRadius() < 0 {
					t.Fatalf("graph %d: nonsensical measures max=%d avg=%v", gi, res.MaxRadius(), res.AvgRadius())
				}
			}
		})
	}
}

// TestIntegrationEngineTriangle runs one algorithm through both engines
// (view, and message via gather) and demands agreement: the same outputs,
// and every round one past the radius except at radius 0.
func TestIntegrationEngineTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := graph.MustCycle(15)
	a := ids.Random(15, rng)
	alg := largestid.Pruning{}

	view, err := local.RunView(g, a, alg)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := local.RunMessage(g, a, local.NewGather(alg))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if view.Outputs[v] != msg.Outputs[v] {
			t.Errorf("vertex %d: outputs diverge across engines", v)
		}
		want := view.Radii[v]
		if want > 0 {
			want++
		}
		if msg.Radii[v] != want {
			t.Errorf("vertex %d: gather offset broken (rounds %d, radius %d)", v, msg.Radii[v], view.Radii[v])
		}
	}
}

// TestIntegrationSynthesizedVsClassic pits the synthesized minimal-radius
// table against Cole-Vishkin on the same instances: same problem, verified
// outputs, strictly smaller radii.
func TestIntegrationSynthesizedVsClassic(t *testing.T) {
	table, err := linial.Synthesize(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustCycle(6)
	a, err := ids.FromPerm([]int{2, 5, 1, 4, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	classic := make([]int, 2)
	for i, alg := range []local.ViewAlgorithm{table, coloring.ForMaxID(5)} {
		res, err := local.RunView(g, a, alg)
		if err != nil {
			t.Fatal(err)
		}
		if err := (problems.Coloring{K: 3}).Verify(g, a, res.Outputs); err != nil {
			t.Fatalf("%s output rejected: %v", alg.Name(), err)
		}
		classic[i] = res.MaxRadius()
	}
	if classic[0] >= classic[1] {
		t.Errorf("synthesized table (max %d) not faster than Cole-Vishkin (max %d)", classic[0], classic[1])
	}
	if classic[0] != 1 {
		t.Errorf("synthesized table max radius %d, want 1", classic[0])
	}
}
