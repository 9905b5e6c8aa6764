package graph

import (
	"math/rand"
	"testing"
)

// families returns one representative of every graph family for invariant
// sweeps.
func families(t *testing.T) map[string]Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	grid, err := NewGrid(4, 5)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	star, err := NewStar(9)
	if err != nil {
		t.Fatalf("NewStar: %v", err)
	}
	btree, err := NewBalancedTree(3, 3)
	if err != nil {
		t.Fatalf("NewBalancedTree: %v", err)
	}
	rtree, err := NewRandomTree(20, rng)
	if err != nil {
		t.Fatalf("NewRandomTree: %v", err)
	}
	gnp, err := NewGNP(25, 0.3, rng)
	if err != nil {
		t.Fatalf("NewGNP: %v", err)
	}
	return map[string]Graph{
		"cycle":        MustCycle(11),
		"path":         MustPath(8),
		"grid":         grid,
		"complete":     MustCompleteGraph(7),
		"star":         star,
		"balancedTree": btree,
		"randomTree":   rtree,
		"gnp":          gnp,
	}
}

func TestValidateAllFamilies(t *testing.T) {
	for name, g := range families(t) {
		if err := Validate(g); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
	}
}

func TestNeighborsMatchesPorts(t *testing.T) {
	for name, g := range families(t) {
		for v := 0; v < g.N(); v++ {
			ns := Neighbors(g, v)
			if len(ns) != g.Degree(v) {
				t.Fatalf("%s: vertex %d: Neighbors len %d != degree %d", name, v, len(ns), g.Degree(v))
			}
			for p, w := range ns {
				if g.Neighbor(v, p) != w {
					t.Fatalf("%s: vertex %d port %d mismatch", name, v, p)
				}
			}
		}
	}
}

func TestEdgesCountConsistency(t *testing.T) {
	for name, g := range families(t) {
		edges := Edges(g)
		if len(edges) != NumEdges(g) {
			t.Errorf("%s: Edges len %d != NumEdges %d", name, len(edges), NumEdges(g))
		}
		for _, e := range edges {
			if e[0] >= e[1] {
				t.Errorf("%s: edge %v not in canonical order", name, e)
			}
			if !Adjacent(g, e[0], e[1]) || !Adjacent(g, e[1], e[0]) {
				t.Errorf("%s: edge %v not symmetric-adjacent", name, e)
			}
		}
	}
}

func TestEdgesKnownCounts(t *testing.T) {
	tests := []struct {
		name string
		g    Graph
		want int
	}{
		{"C11", MustCycle(11), 11},
		{"P8", MustPath(8), 7},
		{"P1", MustPath(1), 0},
		{"K7", MustCompleteGraph(7), 7 * 6 / 2},
		{"star9", mustStar(t, 9), 8},
	}
	for _, tt := range tests {
		if got := NumEdges(tt.g); got != tt.want {
			t.Errorf("%s: NumEdges = %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestMaxDegree(t *testing.T) {
	tests := []struct {
		name string
		g    Graph
		want int
	}{
		{"C5", MustCycle(5), 2},
		{"P6", MustPath(6), 2},
		{"P2", MustPath(2), 1},
		{"K4", MustCompleteGraph(4), 3},
		{"star10", mustStar(t, 10), 9},
	}
	for _, tt := range tests {
		if got := MaxDegree(tt.g); got != tt.want {
			t.Errorf("%s: MaxDegree = %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestValidateRejectsBrokenGraphs(t *testing.T) {
	if err := Validate(asymGraph{}); err == nil {
		t.Error("Validate accepted an asymmetric graph")
	}
	if err := Validate(loopGraph{}); err == nil {
		t.Error("Validate accepted a self-loop")
	}
}

// asymGraph has an edge 0->1 with no reverse.
type asymGraph struct{}

func (asymGraph) N() int                { return 2 }
func (asymGraph) Degree(v int) int      { return 1 - v }
func (asymGraph) Neighbor(_, _ int) int { return 1 }

// loopGraph has a self-loop at 0.
type loopGraph struct{}

func (loopGraph) N() int                { return 1 }
func (loopGraph) Degree(int) int        { return 1 }
func (loopGraph) Neighbor(_, _ int) int { return 0 }

func mustStar(t *testing.T, n int) *Adj {
	t.Helper()
	g, err := NewStar(n)
	if err != nil {
		t.Fatalf("NewStar(%d): %v", n, err)
	}
	return g
}
