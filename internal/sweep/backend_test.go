package sweep

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

// implicitFamilySpecs is the backend-equivalence graph grid: every implicit
// family the graph package ships, at sizes small enough for the builder
// baseline.
func implicitFamilySpecs() []struct {
	name  string
	build func(n int, rng *rand.Rand) (graph.Graph, error)
	sizes []int
} {
	return []struct {
		name  string
		build func(n int, rng *rand.Rand) (graph.Graph, error)
		sizes []int
	}{
		{"cycle", func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) }, []int{17, 64}},
		{"path", func(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewPath(n) }, []int{16, 41}},
	}
}

// TestBackendsByteIdentical is the cross-backend acceptance hold: for every
// implicit family, algorithm and worker count, the implicit and atlas
// backends, with kernels on and off, produce byte-identical aggregates
// under equal seeds.
func TestBackendsByteIdentical(t *testing.T) {
	algs := []struct {
		name string
		alg  local.ViewAlgorithm
	}{
		{"pruning", largestid.Pruning{}},
		{"fullview", largestid.FullView{}},
	}
	for _, fam := range implicitFamilySpecs() {
		for _, al := range algs {
			alg := al.alg
			base := Spec{
				Seed:      53,
				Sizes:     fam.sizes,
				Trials:    5,
				Graph:     fam.build,
				Alg:       func(int, ids.Assignment) local.ViewAlgorithm { return alg },
				Workers:   1,
				NoKernels: true,
			}
			want, err := Run(context.Background(), base)
			if err != nil {
				t.Fatalf("%s/%s builder: %v", fam.name, al.name, err)
			}
			for _, backend := range []Backend{BackendAtlas, BackendImplicit} {
				for _, noKernels := range []bool{false, true} {
					for _, workers := range []int{1, 4, runtime.NumCPU()} {
						spec := base
						spec.Backend = backend
						spec.NoKernels = noKernels
						spec.Workers = workers
						got, err := Run(context.Background(), spec)
						if err != nil {
							t.Fatalf("%s/%s %q nokernels=%v workers=%d: %v", fam.name, al.name, backend, noKernels, workers, err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Errorf("%s/%s %q nokernels=%v workers=%d: aggregates diverge from builder",
								fam.name, al.name, backend, noKernels, workers)
						}
					}
				}
			}
		}
	}
}

// TestCappedAtlasMidSweepIdentical is the materialised-fallback regression:
// an atlas that exhausts a crushingly low memory limit mid-sweep (kernels
// marking vertices unserved, the engine degrading to the builder) must still
// produce byte-identical tables, including against the implicit backend.
func TestCappedAtlasMidSweepIdentical(t *testing.T) {
	want, err := Run(context.Background(), cycleSpec(61, []int{96}, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{512, 2048, 16384} {
		capped := cycleSpec(61, []int{96}, 8, 2)
		capped.AtlasMemLimit = limit
		got, err := Run(context.Background(), capped)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("limit %d: capped-atlas sweep diverged", limit)
		}
	}
	implicit := cycleSpec(61, []int{96}, 8, 2)
	implicit.Backend = BackendImplicit
	got, err := Run(context.Background(), implicit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("implicit sweep diverged from the default-atlas sweep")
	}
}

// TestBackendValidation covers the typed implicit-unsupported refusal and
// the refusal of a backend name outside the known set.
func TestBackendValidation(t *testing.T) {
	gnp := cycleSpec(67, []int{24}, 2, 1)
	gnp.Backend = BackendImplicit
	gnp.Graph = func(n int, rng *rand.Rand) (graph.Graph, error) { return graph.NewGNP(n, 0.2, rng) }
	gnp.Verify = nil
	var unsupported *ImplicitUnsupportedError
	if _, err := Run(context.Background(), gnp); !errors.As(err, &unsupported) {
		t.Fatalf("implicit over GNP = %v, want *ImplicitUnsupportedError", err)
	} else if unsupported.N != 24 || len(unsupported.Qualifying) == 0 || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unsupported error carries %+v: %v", unsupported, err)
	}

	badName := cycleSpec(67, []int{12}, 1, 1)
	badName.Backend = Backend("fast")
	if _, err := Run(context.Background(), badName); err == nil || !strings.Contains(err.Error(), `unknown backend "fast"`) {
		t.Fatalf("unknown backend through Run = %v, want an unknown-backend error", err)
	}
}
