package sweep

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

// equivWorkerCounts is the worker grid of the kernel equivalence suite.
func equivWorkerCounts() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// runConfigs executes spec under every (kernels on/off, worker count)
// configuration and demands aggregates byte-identical to one worker's
// view-path run.
func runConfigs(t *testing.T, name string, spec Spec) {
	t.Helper()
	base := spec
	base.Workers = 1
	base.NoKernels = true
	want, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("%s view path: %v", name, err)
	}
	for _, workers := range equivWorkerCounts() {
		for _, noKernels := range []bool{false, true} {
			got := spec
			got.Workers = workers
			got.NoKernels = noKernels
			res, err := Run(context.Background(), got)
			if err != nil {
				t.Fatalf("%s workers=%d nokernels=%v: %v", name, workers, noKernels, err)
			}
			if !reflect.DeepEqual(want, res) {
				t.Errorf("%s workers=%d nokernels=%v: aggregates diverge from the one-worker view path",
					name, workers, noKernels)
			}
		}
	}
}

// TestKernelsOnOffIdentical is the sweep half of the kernel acceptance
// guarantee: kernels on and kernels off produce byte-identical tables at
// any worker count, across the experiment's graph
// families and for every kernel-capable algorithm.
func TestKernelsOnOffIdentical(t *testing.T) {
	families := []struct {
		name  string
		build func(n int, rng *rand.Rand) (graph.Graph, error)
	}{
		{"cycle", func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) }},
		{"path", func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewPath(n) }},
		{"grid", func(_ int, _ *rand.Rand) (graph.Graph, error) { return graph.NewGrid(5, 6) }},
		{"tree", func(n int, rng *rand.Rand) (graph.Graph, error) { return graph.NewRandomTree(n, rng) }},
		{"gnp", func(n int, rng *rand.Rand) (graph.Graph, error) { return graph.NewGNP(n, 0.12, rng) }},
	}
	algs := []struct {
		name string
		alg  local.ViewAlgorithm
	}{
		{"pruning", largestid.Pruning{}},
		{"fullview", largestid.FullView{}},
	}
	for _, fam := range families {
		for _, al := range algs {
			alg := al.alg
			spec := Spec{
				Seed:   31,
				Sizes:  []int{18, 30},
				Trials: 5,
				Graph:  fam.build,
				Alg:    func(int, ids.Assignment) local.ViewAlgorithm { return alg },
			}
			runConfigs(t, fam.name+"/"+al.name, spec)
		}
	}
}

// TestKernelsUniformIdentical covers the ring-only Uniform kernel through
// the sweep: same tables with the kernel, the view path and the builder.
func TestKernelsUniformIdentical(t *testing.T) {
	spec := Spec{
		Seed:   37,
		Sizes:  []int{16, 40},
		Trials: 4,
		Graph:  func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) },
		Alg:    func(int, ids.Assignment) local.ViewAlgorithm { return coloring.Uniform{} },
	}
	runConfigs(t, "cycle/uniform", spec)
}

// TestKernelsCappedAtlasIdentical drives the kernels' unserved-vertex
// fallback through the sweep: a memory-capped atlas degrades mid-run and
// tables stay byte-identical.
func TestKernelsCappedAtlasIdentical(t *testing.T) {
	base := cycleSpec(41, []int{48}, 6, 2)
	base.NoKernels = true
	want, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	capped := cycleSpec(41, []int{48}, 6, 2)
	capped.AtlasMemLimit = 2048
	got, err := Run(context.Background(), capped)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("memory-capped kernel sweep diverged from the view-path sweep")
	}
}

// TestKernelSweepSharedAtlasHammer oversubscribes the worker pool against
// one shared (cached) atlas with kernels on — the -race configuration of
// the acceptance criteria — and checks determinism against one worker.
func TestKernelSweepSharedAtlasHammer(t *testing.T) {
	spec := cycleSpec(43, []int{64, 96}, 12, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = runtime.NumCPU() * 3
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("oversubscribed kernel sweep diverged from sequential run")
	}
}
