package graph

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// implicitTestFamilies is the zoo every implicit suite sweeps: rings (odd,
// even) and paths (including the degenerate 1- and 2-vertex ones).
func implicitTestFamilies() map[string]Implicit {
	return map[string]Implicit{
		"cycle5":  MustCycle(5),
		"cycle6":  MustCycle(6),
		"cycle16": MustCycle(16),
		"path1":   MustPath(1),
		"path2":   MustPath(2),
		"path9":   MustPath(9),
	}
}

// TestImplicitFamiliesValidate checks the implicit families against the package
// structural invariants (symmetry, no loops, no parallel edges).
func TestImplicitFamiliesValidate(t *testing.T) {
	for name, g := range implicitTestFamilies() {
		if err := Validate(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestImplicitClosedFormsMatchBFS pins every closed form — DistTo,
// EccentricityOf, LayerSize, AppendLayer membership — to real BFS over the
// port-numbered graph.
func TestImplicitClosedFormsMatchBFS(t *testing.T) {
	for name, g := range implicitTestFamilies() {
		n := g.N()
		for c := 0; c < n; c++ {
			dist := BFSDistances(g, c)
			ecc := 0
			for v, d := range dist {
				if got := g.DistTo(c, v); got != d {
					t.Fatalf("%s: DistTo(%d,%d)=%d, BFS says %d", name, c, v, got, d)
				}
				if d > ecc {
					ecc = d
				}
			}
			if got := g.EccentricityOf(c); got != ecc {
				t.Fatalf("%s: EccentricityOf(%d)=%d, BFS says %d", name, c, got, ecc)
			}
			for r := 0; r <= ecc+2; r++ {
				var want []int
				for v, d := range dist {
					if d == r {
						want = append(want, v)
					}
				}
				if got := g.LayerSize(c, r); got != len(want) {
					t.Fatalf("%s: LayerSize(%d,%d)=%d, BFS says %d", name, c, r, got, len(want))
				}
				if r == 0 {
					continue
				}
				got := g.AppendLayer(nil, c, r)
				sort.Ints(got)
				sort.Ints(want)
				if !equalInts(got, want) {
					t.Fatalf("%s: AppendLayer(%d,%d)=%v, BFS says %v", name, c, r, got, want)
				}
			}
		}
	}
}

// TestImplicitLayerFuzz is the randomised version of the closed-form check:
// random (family, parameters, center, r) against BFSDistances.
func TestImplicitLayerFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		var g Implicit = MustCycle(3 + rng.Intn(60))
		if rng.Intn(2) == 1 {
			g = MustPath(1 + rng.Intn(60))
		}
		c := rng.Intn(g.N())
		dist := BFSDistances(g, c)
		ecc := 0
		for _, d := range dist {
			if d > ecc {
				ecc = d
			}
		}
		r := rng.Intn(ecc + 3)
		var want []int
		for v, d := range dist {
			if d == r {
				want = append(want, v)
			}
		}
		if got := g.LayerSize(c, r); got != len(want) {
			t.Fatalf("iter %d %s n=%d: LayerSize(%d,%d)=%d, BFS says %d",
				iter, g.ImplicitFamily(), g.N(), c, r, got, len(want))
		}
		if r >= 1 {
			got := g.AppendLayer(nil, c, r)
			sort.Ints(got)
			sort.Ints(want)
			if !equalInts(got, want) {
				t.Fatalf("iter %d %s n=%d: AppendLayer(%d,%d) mismatch", iter, g.ImplicitFamily(), g.N(), c, r)
			}
		}
	}
}

// TestImplicitBallsMatchAtlas compares the synthesized skeleton against the
// materialised atlas, field for field at every (centre, radius) the sweep
// engine can ask for: sizes, frontier boundaries, completeness bits,
// per-vertex (dist, degree) pairs, and the layer order itself.
func TestImplicitBallsMatchAtlas(t *testing.T) {
	for name, g := range implicitTestFamilies() {
		atlas := NewBallAtlas(g, -1)
		src := NewImplicitBalls(g)
		if src.Graph() != Graph(g) {
			t.Fatalf("%s: Graph() mismatch", name)
		}
		for c := 0; c < g.N(); c++ {
			ecc := g.EccentricityOf(c)
			for r := 0; r <= ecc+2; r++ {
				ib := src.Ensure(c, r)
				ab := atlas.Ensure(c, r)
				if ib == nil || ab == nil {
					t.Fatalf("%s: Ensure(%d,%d) nil snapshot", name, c, r)
				}
				if ib.SizeAt(r) != ab.SizeAt(r) || ib.FrontierStartAt(r) != ab.FrontierStartAt(r) || ib.CompleteAt(r) != ab.CompleteAt(r) {
					t.Fatalf("%s: centre %d radius %d: size/frontier/complete (%d,%d,%v) vs atlas (%d,%d,%v)",
						name, c, r, ib.SizeAt(r), ib.FrontierStartAt(r), ib.CompleteAt(r),
						ab.SizeAt(r), ab.FrontierStartAt(r), ab.CompleteAt(r))
				}
				end := ib.SizeAt(r)
				for i := 0; i < end; i++ {
					if ib.Verts[i] != ab.Verts[i] {
						t.Fatalf("%s: centre %d radius %d: Verts[%d]=%d vs atlas %d",
							name, c, r, i, ib.Verts[i], ab.Verts[i])
					}
				}
				type attrs struct{ dist, deg int }
				got := make(map[int]attrs, end)
				want := make(map[int]attrs, end)
				for i := 0; i < end; i++ {
					got[ib.Verts[i]] = attrs{ib.Dist[i], ib.Degs[i]}
					want[ab.Verts[i]] = attrs{ab.Dist[i], ab.Degs[i]}
				}
				for v, w := range want {
					if got[v] != w {
						t.Fatalf("%s: centre %d radius %d vertex %d: %+v vs atlas %+v",
							name, c, r, v, got[v], w)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s: centre %d radius %d: %d vertices vs atlas %d", name, c, r, len(got), len(want))
				}
			}
			if !src.Ensure(c, ecc+2).Complete {
				t.Fatalf("%s: centre %d not Complete past eccentricity %d", name, c, ecc)
			}
		}
	}
}

// TestImplicitBallsCentreSwitch exercises the scratch reuse: growing one
// centre, switching away mid-growth, and coming back must always serve the
// correct skeleton for the CURRENT centre.
func TestImplicitBallsCentreSwitch(t *testing.T) {
	g := MustCycle(35)
	atlas := NewBallAtlas(g, -1)
	src := NewImplicitBalls(g)
	check := func(c, r int) {
		t.Helper()
		ib, ab := src.Ensure(c, r), atlas.Ensure(c, r)
		if ib.SizeAt(r) != ab.SizeAt(r) || ib.CompleteAt(r) != ab.CompleteAt(r) {
			t.Fatalf("centre %d radius %d: (%d,%v) vs atlas (%d,%v)",
				c, r, ib.SizeAt(r), ib.CompleteAt(r), ab.SizeAt(r), ab.CompleteAt(r))
		}
		gotLayer := append([]int(nil), ib.Verts[ib.FrontierStartAt(r):ib.SizeAt(r)]...)
		wantLayer := append([]int(nil), ab.Verts[ab.FrontierStartAt(r):ab.SizeAt(r)]...)
		sort.Ints(gotLayer)
		sort.Ints(wantLayer)
		if !equalInts(gotLayer, wantLayer) {
			t.Fatalf("centre %d radius %d: layer %v vs atlas %v", c, r, gotLayer, wantLayer)
		}
	}
	check(0, 1)
	check(17, 3) // switch mid-growth of centre 0
	check(0, 2)  // back: rebuilt from scratch
	check(0, 5)
	check(17, 5)
}

// hugeDegGraph lies about its degrees to trip the CSR sizing pass without
// allocating anything; Neighbor must never be reached.
type hugeDegGraph struct{ n int }

func (h hugeDegGraph) N() int       { return h.n }
func (hugeDegGraph) Degree(int) int { return math.MaxInt32 / 2 }
func (hugeDegGraph) Neighbor(int, int) int {
	panic("graph: hugeDegGraph.Neighbor called — CSR sizing should have refused first")
}

// TestAtlasCSROverflow covers the typed refusal: the boundary table for the
// sizing predicate, and the atlas behaviour (nil Ensure, Exhausted, typed
// Err) when a graph trips it.
func TestAtlasCSROverflow(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		edgeEnds int64
		fits     bool
	}{
		{"small", 10, 20, true},
		{"edge-ends at bound", 10, math.MaxInt32, true},
		{"edge-ends past bound", 10, math.MaxInt32 + 1, false},
		{"verts at bound", math.MaxInt32 - 1, 0, true},
		{"verts past bound", math.MaxInt32, 0, false},
		{"both huge", math.MaxInt32, math.MaxInt64, false},
	}
	for _, tc := range cases {
		if got := csrFits(tc.n, tc.edgeEnds); got != tc.fits {
			t.Errorf("%s: csrFits(%d, %d) = %v, want %v", tc.name, tc.n, tc.edgeEnds, got, tc.fits)
		}
	}

	a := NewBallAtlas(hugeDegGraph{n: 3}, -1)
	if a.Err() != nil {
		t.Fatalf("Err before any Ensure: %v", a.Err())
	}
	if st := a.Ensure(0, 1); st != nil {
		t.Fatalf("Ensure on overflowing graph returned %+v, want nil", st)
	}
	if !a.Exhausted() {
		t.Fatal("overflowing atlas not Exhausted")
	}
	var ov *CSROverflowError
	if err := a.Err(); !errors.As(err, &ov) {
		t.Fatalf("Err = %v, want *CSROverflowError", err)
	} else if ov.Verts != 3 || ov.EdgeEnds != 3*int64(math.MaxInt32/2) {
		t.Fatalf("Err carries %+v", ov)
	}
	// The refusal is sticky and still nil on repeat.
	if st := a.Ensure(1, 2); st != nil {
		t.Fatal("second Ensure after refusal served a snapshot")
	}
	// A healthy atlas reports no Err even when memory-capped.
	capped := NewBallAtlas(MustCycle(64), 1)
	capped.Ensure(0, 4)
	for r := 1; capped.Ensure(0, r) != nil && r < 64; r++ {
	}
	if capped.Err() != nil {
		t.Fatalf("memory-capped atlas has Err %v, want nil", capped.Err())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
