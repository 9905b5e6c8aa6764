package linial

import (
	"testing"

	"repro/internal/graph"
)

func TestNeighborhoodGraphRadiusZero(t *testing.T) {
	// N_0(s): views are single identifiers; any two distinct identifiers
	// can be adjacent on a ring, so N_0(s) = K_s.
	g, views, err := NeighborhoodGraph(4, 0)
	if err != nil {
		t.Fatalf("NeighborhoodGraph: %v", err)
	}
	if len(views) != 4 {
		t.Fatalf("views = %d, want 4", len(views))
	}
	if graph.NumEdges(g) != 6 {
		t.Errorf("N_0(4) has %d edges, want K_4's 6", graph.NumEdges(g))
	}
}

func TestRadiusZeroThreeColourability(t *testing.T) {
	// K_3 is 3-colourable, K_4 is not: a radius-0 3-colouring algorithm
	// exists exactly when the identifier space has at most 3 identifiers.
	// (s=3 means rings of length 3 at most — the degenerate base case.)
	v4, err := ThreeColorable(4, 0)
	if err != nil {
		t.Fatalf("ThreeColorable(4,0): %v", err)
	}
	if v4.Usable {
		t.Error("radius-0 3-colouring reported possible for s=4")
	}
}

func TestNeighborhoodGraphStructure(t *testing.T) {
	g, views, err := NeighborhoodGraph(5, 1)
	if err != nil {
		t.Fatalf("NeighborhoodGraph: %v", err)
	}
	if len(views) != 5*4*3 {
		t.Fatalf("views = %d, want 60", len(views))
	}
	if err := graph.Validate(g); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
	// Spot-check adjacency semantics: (0,1,2) must neighbour (1,2,3).
	idx := func(a, b, c int) int {
		for i, v := range views {
			if v[0] == a && v[1] == b && v[2] == c {
				return i
			}
		}
		t.Fatalf("view (%d,%d,%d) not found", a, b, c)
		return -1
	}
	if !graph.Adjacent(g, idx(0, 1, 2), idx(1, 2, 3)) {
		t.Error("(0,1,2) not adjacent to (1,2,3)")
	}
	// No rotation edge: rings of length exactly 3 are handled by the
	// closed-view branch of TableAlgorithm, not by the window table.
	if graph.Adjacent(g, idx(0, 1, 2), idx(1, 2, 0)) {
		t.Error("(0,1,2) adjacent to its rotation (1,2,0); length-3 rings are out of scope here")
	}
	if graph.Adjacent(g, idx(0, 1, 2), idx(2, 3, 4)) {
		t.Error("non-overlapping views adjacent")
	}
	if graph.Adjacent(g, idx(0, 1, 2), idx(1, 4, 2)) {
		t.Error("views with mismatched overlap adjacent")
	}
}

func TestNeighborhoodGraphErrors(t *testing.T) {
	if _, _, err := NeighborhoodGraph(3, -1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, _, err := NeighborhoodGraph(3, 1); err == nil {
		t.Error("too-small identifier space accepted")
	}
	if _, _, err := NeighborhoodGraph(50, 2); err == nil {
		t.Error("oversized construction accepted (cap)")
	}
}

func TestIsKColorableKnownGraphs(t *testing.T) {
	c5 := cycleAdj(t, 5)
	if ok, _, err := IsKColorable(c5, 2); err != nil || ok {
		t.Errorf("C5 reported 2-colourable (ok=%v err=%v)", ok, err)
	}
	ok, colours, err := IsKColorable(c5, 3)
	if err != nil || !ok {
		t.Fatalf("C5 not 3-colourable (err=%v)", err)
	}
	for _, e := range graph.Edges(c5) {
		if colours[e[0]] == colours[e[1]] {
			t.Fatalf("witness colouring improper at %v", e)
		}
	}
	k4, err := graph.NewAdj(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := IsKColorable(k4, 3); ok {
		t.Error("K4 reported 3-colourable")
	}
	if ok, _, _ := IsKColorable(k4, 4); !ok {
		t.Error("K4 reported not 4-colourable")
	}
}

func cycleAdj(t *testing.T, n int) *graph.Adj {
	t.Helper()
	edges := make([][2]int, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n})
	}
	g, err := graph.NewAdj(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRadiusOneThreshold pins the exact radius-1 feasibility threshold this
// module computes: a radius-1 3-colouring algorithm for the oriented ring
// exists for identifier spaces up to SIX identifiers and provably not for
// seven. (Monotonicity — N_1(s') is a subgraph of N_1(s) for s' <= s —
// extends the impossibility to every larger space, which is Linial's
// phenomenon in its smallest concrete instance.)
func TestRadiusOneThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("exact search skipped in -short mode")
	}
	for s := 4; s <= 6; s++ {
		v, err := ThreeColorable(s, 1)
		if err != nil {
			t.Fatalf("ThreeColorable(%d,1): %v", s, err)
		}
		if !v.Usable {
			t.Errorf("s=%d: expected feasible", s)
		}
	}
	v7, err := ThreeColorable(7, 1)
	if err != nil {
		t.Fatalf("ThreeColorable(7,1): %v", err)
	}
	if v7.Usable {
		t.Error("s=7: expected infeasible (the exact threshold)")
	}
	s, found, err := SmallestHardSpace(1, 4, 7)
	if err != nil {
		t.Fatalf("SmallestHardSpace: %v", err)
	}
	if !found || s != 7 {
		t.Errorf("SmallestHardSpace = (%d,%v), want (7,true)", s, found)
	}
}
