package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGridStructure(t *testing.T) {
	g, err := NewGrid(3, 4)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	if g.N() != 12 {
		t.Fatalf("N = %d, want 12", g.N())
	}
	// rows*(cols-1) horizontal + (rows-1)*cols vertical edges.
	if want := 3*3 + 2*4; NumEdges(g) != want {
		t.Errorf("NumEdges = %d, want %d", NumEdges(g), want)
	}
	if g.Degree(0) != 2 { // corner
		t.Errorf("corner degree = %d, want 2", g.Degree(0))
	}
	if g.Degree(1) != 3 { // edge of border
		t.Errorf("border degree = %d, want 3", g.Degree(1))
	}
	if g.Degree(5) != 4 { // interior (1,1)
		t.Errorf("interior degree = %d, want 4", g.Degree(5))
	}
	if !IsConnected(g) {
		t.Error("grid not connected")
	}
}

func TestGridRejectsBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 3}, {3, 0}, {-1, 2}} {
		if _, err := NewGrid(dims[0], dims[1]); err == nil {
			t.Errorf("NewGrid(%d,%d) succeeded, want error", dims[0], dims[1])
		}
	}
}

func TestCompleteStructure(t *testing.T) {
	g := MustCompleteGraph(6)
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 5 {
			t.Errorf("Degree(%d) = %d, want 5", v, g.Degree(v))
		}
	}
	if Diameter(g) != 1 {
		t.Errorf("Diameter = %d, want 1", Diameter(g))
	}
}

func TestBalancedTreeCounts(t *testing.T) {
	tests := []struct {
		b, d, wantN int
	}{
		{2, 0, 1},
		{2, 1, 3},
		{2, 3, 15},
		{3, 2, 13},
		{1, 4, 5}, // degenerate: a path
	}
	for _, tt := range tests {
		g, err := NewBalancedTree(tt.b, tt.d)
		if err != nil {
			t.Fatalf("NewBalancedTree(%d,%d): %v", tt.b, tt.d, err)
		}
		if g.N() != tt.wantN {
			t.Errorf("NewBalancedTree(%d,%d).N = %d, want %d", tt.b, tt.d, g.N(), tt.wantN)
		}
		if NumEdges(g) != tt.wantN-1 {
			t.Errorf("tree has %d edges, want %d", NumEdges(g), tt.wantN-1)
		}
		if !IsConnected(g) {
			t.Errorf("NewBalancedTree(%d,%d) not connected", tt.b, tt.d)
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	sizes := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%60 + 1
		g, err := NewRandomTree(n, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return g.N() == n && NumEdges(g) == n-1 && IsConnected(g)
	}
	if err := quick.Check(sizes, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("random tree not a tree: %v", err)
	}
}

func TestRandomTreeDeterministicPerSeed(t *testing.T) {
	a, err := NewRandomTree(30, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("NewRandomTree: %v", err)
	}
	b, err := NewRandomTree(30, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("NewRandomTree: %v", err)
	}
	ea, eb := Edges(a), Edges(b)
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestGNPExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	empty, err := NewGNP(10, 0, rng)
	if err != nil {
		t.Fatalf("NewGNP p=0: %v", err)
	}
	if NumEdges(empty) != 0 {
		t.Errorf("G(10,0) has %d edges", NumEdges(empty))
	}
	full, err := NewGNP(10, 1, rng)
	if err != nil {
		t.Fatalf("NewGNP p=1: %v", err)
	}
	if NumEdges(full) != 45 {
		t.Errorf("G(10,1) has %d edges, want 45", NumEdges(full))
	}
}

func TestGNPRejectsBadP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []float64{-0.1, 1.1} {
		if _, err := NewGNP(5, p, rng); err == nil {
			t.Errorf("NewGNP(p=%v) succeeded, want error", p)
		}
	}
}

func TestGeneratorsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gs := []Graph{}
	grid, err := NewGrid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, grid)
	tree, err := NewRandomTree(40, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, tree)
	gnp, err := NewGNP(30, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, gnp)
	for i, g := range gs {
		if err := Validate(g); err != nil {
			t.Errorf("generated graph %d invalid: %v", i, err)
		}
	}
}
