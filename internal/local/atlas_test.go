package local_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/algorithms/mis"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

// equivFamilies is the graph zoo of the atlas and kernel equivalence suites.
func equivFamilies(t *testing.T) []struct {
	name string
	g    graph.Graph
} {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	tree, err := graph.NewRandomTree(40, rng)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.NewGrid(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.NewGNP(32, 0.1, rng) // likely disconnected: component balls
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    graph.Graph
	}{
		{"path", graph.MustPath(33)},
		{"cycle", graph.MustCycle(32)},
		{"tree", tree},
		{"grid", grid},
		{"gnp", gnp},
	}
}

// sameResult compares two executions field by field.
func sameResult(a, b *local.Result) bool {
	if a.Algorithm != b.Algorithm || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for v := range a.Outputs {
		if a.Outputs[v] != b.Outputs[v] || a.Radii[v] != b.Radii[v] {
			return false
		}
	}
	return true
}

// TestRunnerAtlasMatchesBuilder is the engine half of the atlas guarantee:
// across graph families, sizes and identifier permutations, a Runner with
// an atlas attached (its kernels read the atlas's skeletons) produces
// byte-identical Results to the ball-builder path.
func TestRunnerAtlasMatchesBuilder(t *testing.T) {
	for _, fam := range equivFamilies(t) {
		n := fam.g.N()
		atlas := graph.NewBallAtlas(fam.g, 0)
		runner := local.NewRunner()
		runner.SetSource(atlas)
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 8; trial++ {
			a := ids.Random(n, rng)
			for _, alg := range []local.ViewAlgorithm{largestid.Pruning{}, largestid.FullView{}} {
				want, err := local.RunView(fam.g, a, alg)
				if err != nil {
					t.Fatalf("%s/%s builder: %v", fam.name, alg.Name(), err)
				}
				got, err := runner.Run(fam.g, a, alg)
				if err != nil {
					t.Fatalf("%s/%s atlas: %v", fam.name, alg.Name(), err)
				}
				if !sameResult(got, want) {
					t.Fatalf("%s/%s trial %d: atlas result differs from builder", fam.name, alg.Name(), trial)
				}
			}
		}
	}
}

// TestRunnerAtlasMatchesBuilderColouring runs the cycle algorithms through
// a Runner with an atlas attached: Cole–Vishkin and the uniform colouring
// run as ring kernels, and composed MIS, which has no kernel, runs on the
// builder beside the attached atlas.
func TestRunnerAtlasMatchesBuilderColouring(t *testing.T) {
	c := graph.MustCycle(48)
	atlas := graph.NewBallAtlas(c, 0)
	runner := local.NewRunner()
	runner.SetSource(atlas)
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 5; trial++ {
		a := ids.Random(48, rng)
		for _, alg := range []local.ViewAlgorithm{
			coloring.ForMaxID(a.MaxID()),
			coloring.Uniform{},
			mis.FromColoring{Base: coloring.ForMaxID(a.MaxID())},
		} {
			want, err := local.RunView(c, a, alg)
			if err != nil {
				t.Fatalf("%s builder: %v", alg.Name(), err)
			}
			got, err := runner.Run(c, a, alg)
			if err != nil {
				t.Fatalf("%s atlas: %v", alg.Name(), err)
			}
			if !sameResult(got, want) {
				t.Fatalf("%s trial %d: atlas result differs from builder", alg.Name(), trial)
			}
		}
	}
}

// TestRunnerAtlasCapFallback pins the degraded mode: with an atlas too
// small for the graph's balls, the Runner transparently reruns capped
// vertices on the builder path and results stay identical.
func TestRunnerAtlasCapFallback(t *testing.T) {
	c := graph.MustCycle(96)
	atlas := graph.NewBallAtlas(c, 2048) // forces mid-sweep exhaustion
	runner := local.NewRunner()
	runner.SetSource(atlas)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4; trial++ {
		a := ids.Random(96, rng)
		want, err := local.RunView(c, a, largestid.Pruning{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runner.Run(c, a, largestid.Pruning{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Fatalf("trial %d: capped-atlas result differs from builder", trial)
		}
	}
	if !atlas.Exhausted() {
		t.Fatal("2 KiB atlas over a 96-cycle sweep should have exhausted")
	}
}

// TestRunnerAtlasWrongGraphIgnored: an attached atlas for a different graph
// must be ignored, not misused.
func TestRunnerAtlasWrongGraphIgnored(t *testing.T) {
	c1, c2 := graph.MustCycle(16), graph.MustCycle(24)
	runner := local.NewRunner()
	runner.SetSource(graph.NewBallAtlas(c1, 0))
	a := ids.Reversed(24)
	want, err := local.RunView(c2, a, largestid.Pruning{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(c2, a, largestid.Pruning{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Fatal("mismatched atlas corrupted the run")
	}
}

// TestRunnerAtlasMaxRadiusError: the safety-cap error must fire at the same
// point with identical text with and without an attached atlas, both for
// an algorithm without a kernel and for a kernel.
func TestRunnerAtlasMaxRadiusError(t *testing.T) {
	c := graph.MustCycle(12)
	a := ids.Identity(12)
	runner := local.NewRunner()
	runner.SetSource(graph.NewBallAtlas(c, 0))
	for _, alg := range []local.ViewAlgorithm{neverDecides{}, largestid.FullView{}} {
		_, wantErr := local.RunView(c, a, alg, local.WithMaxRadius(3))
		_, gotErr := runner.Run(c, a, alg, local.WithMaxRadius(3))
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: cap errors diverge: builder=%v atlas=%v", alg.Name(), wantErr, gotErr)
		}
	}
}

type neverDecides struct{}

func (neverDecides) Name() string                  { return "never" }
func (neverDecides) Decide(local.View) (int, bool) { return 0, false }

// TestRunnerAtlasSharedRace hammers ONE atlas from many concurrently
// growing workers, each with its own Runner and its own permutations, and
// checks every result against the builder path. CI runs this package under
// -race; lock-free snapshot reads and per-centre growth must both hold up.
func TestRunnerAtlasSharedRace(t *testing.T) {
	c := graph.MustCycle(64)
	atlas := graph.NewBallAtlas(c, 0)
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			runner := local.NewRunner()
			runner.SetSource(atlas)
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 6; trial++ {
				a := ids.Random(64, rng)
				want, err := local.RunView(c, a, largestid.Pruning{})
				if err != nil {
					errs <- err
					return
				}
				got, err := runner.Run(c, a, largestid.Pruning{})
				if err != nil {
					errs <- err
					return
				}
				if !sameResult(got, want) {
					errs <- fmt.Errorf("worker seed %d trial %d: atlas diverged", seed, trial)
					return
				}
			}
		}(int64(w + 100))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
