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
// implicit family, algorithm and worker count, the implicit, atlas and
// builder backends produce byte-identical aggregates under equal seeds.
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
				Seed:    53,
				Sizes:   fam.sizes,
				Trials:  5,
				Graph:   fam.build,
				Alg:     func(int, ids.Assignment) local.ViewAlgorithm { return alg },
				Workers: 1,
				Backend: BackendBuilder,
			}
			want, err := Run(context.Background(), base)
			if err != nil {
				t.Fatalf("%s/%s builder: %v", fam.name, al.name, err)
			}
			for _, backend := range []Backend{BackendAtlas, BackendBuilder, BackendImplicit} {
				for _, workers := range []int{1, 4, runtime.NumCPU()} {
					spec := base
					spec.Backend = backend
					spec.Workers = workers
					got, err := Run(context.Background(), spec)
					if err != nil {
						t.Fatalf("%s/%s %s workers=%d: %v", fam.name, al.name, backend, workers, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s/%s %s workers=%d: aggregates diverge from builder",
							fam.name, al.name, backend, workers)
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

// TestParseBackend covers the name table and the typed unknown error.
func TestParseBackend(t *testing.T) {
	for _, ok := range []string{"", "atlas", "builder", "implicit"} {
		if _, err := ParseBackend(ok); err != nil {
			t.Errorf("ParseBackend(%q): %v", ok, err)
		}
	}
	var unknown *UnknownBackendError
	if _, err := ParseBackend("csr"); !errors.As(err, &unknown) {
		t.Fatalf("ParseBackend(csr) = %v, want *UnknownBackendError", err)
	} else if unknown.Name != "csr" || !strings.Contains(err.Error(), "implicit") {
		t.Fatalf("unknown-backend error carries %+v: %v", unknown, err)
	}
}

// TestBackendValidation covers the spec-level conflicts and the typed
// implicit-unsupported refusal.
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
	var unknown *UnknownBackendError
	if _, err := Run(context.Background(), badName); !errors.As(err, &unknown) {
		t.Fatalf("unknown backend through Run = %v, want *UnknownBackendError", err)
	}
}
