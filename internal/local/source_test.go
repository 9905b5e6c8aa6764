package local_test

import (
	"math/rand"
	"testing"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

// implicitEquivFamilies is the zoo of the implicit-source equivalence suite:
// every Implicit family the repository ships, at sizes where the builder
// baseline stays cheap.
func implicitEquivFamilies() []struct {
	name string
	g    graph.Implicit
} {
	return []struct {
		name string
		g    graph.Implicit
	}{
		{"cycle", graph.MustCycle(33)},
		{"cycle-even", graph.MustCycle(32)},
		{"path", graph.MustPath(29)},
	}
}

// TestRunnerImplicitSourceMatchesBuilder is the engine half of the implicit
// guarantee: a Runner serving kernel runs from a synthesized ImplicitBalls
// source produces byte-identical Results to both the ball-builder path and a
// materialised-atlas Runner, across families and identifier permutations.
func TestRunnerImplicitSourceMatchesBuilder(t *testing.T) {
	for _, fam := range implicitEquivFamilies() {
		n := fam.g.N()
		implicitRunner := local.NewRunner()
		implicitRunner.SetSource(graph.NewImplicitBalls(fam.g))
		atlasRunner := local.NewRunner()
		atlasRunner.SetSource(graph.NewBallAtlas(fam.g, 0))
		algs := []local.ViewAlgorithm{largestid.Pruning{}, largestid.FullView{}}
		if _, ok := fam.g.(graph.Cycle); ok {
			algs = append(algs, coloring.Uniform{})
		}
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 8; trial++ {
			a := ids.Random(n, rng)
			for _, alg := range algs {
				want, err := local.RunView(fam.g, a, alg)
				if err != nil {
					t.Fatalf("%s/%s builder: %v", fam.name, alg.Name(), err)
				}
				fromAtlas, err := atlasRunner.Run(fam.g, a, alg)
				if err != nil {
					t.Fatalf("%s/%s atlas: %v", fam.name, alg.Name(), err)
				}
				if !sameResult(fromAtlas, want) {
					t.Fatalf("%s/%s trial %d: atlas result differs from builder", fam.name, alg.Name(), trial)
				}
				got, err := implicitRunner.Run(fam.g, a, alg)
				if err != nil {
					t.Fatalf("%s/%s implicit: %v", fam.name, alg.Name(), err)
				}
				if !sameResult(got, want) {
					t.Fatalf("%s/%s trial %d: implicit result differs from builder", fam.name, alg.Name(), trial)
				}
			}
		}
	}
}

// TestRunnerImplicitSourceViewPath pins the view-path contract: a source
// serves kernels only, so WithoutKernels runs under an implicit source take
// the ball-builder path like every view and match the baseline byte for
// byte.
func TestRunnerImplicitSourceViewPath(t *testing.T) {
	g := graph.MustPath(20)
	runner := local.NewRunner()
	runner.SetSource(graph.NewImplicitBalls(g))
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		a := ids.Random(g.N(), rng)
		want, err := local.RunView(g, a, largestid.Pruning{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runner.Run(g, a, largestid.Pruning{}, local.WithoutKernels())
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Fatalf("trial %d: view-path run under implicit source differs from builder", trial)
		}
	}
}
