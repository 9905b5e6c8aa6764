package local_test

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

var errMismatch = errors.New("racy run diverged from reference result")

// TestKernelMatchesViewPath is the engine half of the kernel guarantee:
// for every kernel-capable algorithm, one flat DecideAll pass produces
// byte-identical Results to the per-vertex view path (kernels forced off,
// source attached) and to a Runner with no source at all, across the graph
// zoo.
func TestKernelMatchesViewPath(t *testing.T) {
	for _, fam := range equivFamilies(t) {
		n := fam.g.N()
		atlas := graph.NewBallAtlas(fam.g, 0)
		kernelRunner := local.NewRunner()
		kernelRunner.SetSource(atlas)
		viewRunner := local.NewRunner()
		viewRunner.SetSource(atlas)
		rng := rand.New(rand.NewSource(47))
		_, isRing := fam.g.(graph.Cycle)
		for trial := 0; trial < 6; trial++ {
			a := ids.Random(n, rng)
			algs := []local.ViewAlgorithm{largestid.Pruning{}, largestid.FullView{}}
			if isRing {
				algs = append(algs, coloring.Uniform{}, coloring.ForMaxID(a.MaxID()))
			}
			for _, alg := range algs {
				if _, ok := alg.(local.Kernel); !ok {
					t.Fatalf("%s does not implement local.Kernel", alg.Name())
				}
				builder, err := local.RunView(fam.g, a, alg)
				if err != nil {
					t.Fatalf("%s/%s builder: %v", fam.name, alg.Name(), err)
				}
				viewPath, err := viewRunner.Run(fam.g, a, alg, local.WithoutKernels())
				if err != nil {
					t.Fatalf("%s/%s view path: %v", fam.name, alg.Name(), err)
				}
				if !sameResult(viewPath, builder) {
					t.Fatalf("%s/%s trial %d: view path with a source attached differs from builder", fam.name, alg.Name(), trial)
				}
				kernel, err := kernelRunner.Run(fam.g, a, alg)
				if err != nil {
					t.Fatalf("%s/%s kernel: %v", fam.name, alg.Name(), err)
				}
				if !sameResult(kernel, builder) {
					t.Fatalf("%s/%s trial %d: kernel result differs from builder", fam.name, alg.Name(), trial)
				}
			}
		}
	}
}

// TestKernelCapFallback pins the kernels' degraded mode: an atlas too small
// for the graph marks vertices unserved mid-pass and the engine reruns
// exactly those on the builder path, with identical results.
func TestKernelCapFallback(t *testing.T) {
	c := graph.MustCycle(96)
	rng := rand.New(rand.NewSource(51))
	for _, alg := range []local.ViewAlgorithm{largestid.Pruning{}, largestid.FullView{}} {
		atlas := graph.NewBallAtlas(c, 2048) // forces mid-pass exhaustion
		runner := local.NewRunner()
		runner.SetSource(atlas)
		for trial := 0; trial < 4; trial++ {
			a := ids.Random(96, rng)
			want, err := local.RunView(c, a, alg)
			if err != nil {
				t.Fatalf("%s builder: %v", alg.Name(), err)
			}
			got, err := runner.Run(c, a, alg)
			if err != nil {
				t.Fatalf("%s capped kernel: %v", alg.Name(), err)
			}
			if !sameResult(got, want) {
				t.Fatalf("%s trial %d: capped kernel differs from builder", alg.Name(), trial)
			}
		}
		if !atlas.Exhausted() {
			t.Fatalf("%s: atlas never hit its cap; fallback path untested", alg.Name())
		}
	}
}

// TestKernelMaxRadiusError demands error parity: a vertex undecided at the
// safety cap fails identically on the kernel and view paths.
func TestKernelMaxRadiusError(t *testing.T) {
	c := graph.MustCycle(32)
	a := ids.Identity(32)
	atlas := graph.NewBallAtlas(c, 0)
	runner := local.NewRunner()
	runner.SetSource(atlas)
	_, kerr := runner.Run(c, a, largestid.FullView{}, local.WithMaxRadius(2))
	_, verr := runner.Run(c, a, largestid.FullView{}, local.WithMaxRadius(2), local.WithoutKernels())
	if kerr == nil || verr == nil {
		t.Fatalf("expected undecided errors, kernel=%v view=%v", kerr, verr)
	}
	if kerr.Error() != verr.Error() {
		t.Fatalf("error mismatch:\nkernel: %v\nview:   %v", kerr, verr)
	}
	if !strings.Contains(kerr.Error(), "undecided at vertex") {
		t.Fatalf("unexpected error shape: %v", kerr)
	}
}

// TestUniformKernelDeclinesNonRing checks that the ring-only Uniform kernel
// declines other graphs instead of mis-serving them.
func TestUniformKernelDeclinesNonRing(t *testing.T) {
	p := graph.MustPath(8)
	atlas := graph.NewBallAtlas(p, 0)
	run := &local.KernelRun{
		Atlas:     atlas,
		Assign:    ids.Identity(8),
		Outs:      make([]int, 8),
		Radii:     make([]int, 8),
		MaxRadius: 8,
	}
	ok, err := coloring.Uniform{}.DecideAll(run)
	if err != nil {
		t.Fatalf("DecideAll on path: %v", err)
	}
	if ok {
		t.Fatal("Uniform kernel served a non-ring graph")
	}
}

// TestKernelObserverUsesViewPath pins the dispatch rule: a WithProgress
// observer needs per-radius callbacks, so its runs take the view path even
// for kernel-capable algorithms — and the observer fires.
func TestKernelObserverUsesViewPath(t *testing.T) {
	c := graph.MustCycle(24)
	a := ids.Random(24, rand.New(rand.NewSource(3)))
	atlas := graph.NewBallAtlas(c, 0)
	runner := local.NewRunner()
	runner.SetSource(atlas)
	events := 0
	res, err := runner.Run(c, a, largestid.Pruning{}, local.WithProgress(func(local.Progress) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("observer never fired: kernel path must not swallow WithProgress runs")
	}
	want, err := local.RunView(c, a, largestid.Pruning{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res, want) {
		t.Fatal("observed run differs from builder run")
	}
}

// TestKernelSharedAtlasRace hammers one atlas from many goroutines running
// kernels concurrently (meaningful under -race): concurrent flat passes
// over a lazily growing skeleton must be safe and deterministic.
func TestKernelSharedAtlasRace(t *testing.T) {
	c := graph.MustCycle(128)
	atlas := graph.NewBallAtlas(c, 0)
	want, err := local.RunView(c, ids.Identity(128), largestid.Pruning{})
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.NumCPU() * 2
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
				a := ids.Random(128, rng)
				if _, err := runner.Run(c, a, largestid.Pruning{}); err != nil {
					errs <- err
					return
				}
			}
			got, err := runner.Run(c, ids.Identity(128), largestid.Pruning{})
			if err != nil {
				errs <- err
				return
			}
			if !sameResult(got, want) {
				errs <- errMismatch
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
