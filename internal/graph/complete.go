package graph

import "fmt"

// Complete is the complete graph K_n as a zero-storage value type: every
// pair of vertices is adjacent, vertex v's port p leads to the p-th other
// vertex in index order (the port order NewAdj would give it). E9 sweeps
// it as the diameter-1 extreme, and the symmetry-quotient path uses its
// declaration — K_n's automorphism group is all of S_n, so its exact
// distribution needs exactly ONE representative per size.
type Complete struct {
	n int
}

var _ Automorphisms = Complete{}

// NewCompleteGraph constructs K_n for n >= 2.
func NewCompleteGraph(n int) (Complete, error) {
	if n < 2 {
		return Complete{}, fmt.Errorf("graph: complete graph needs n >= 2, got %d", n)
	}
	return Complete{n: n}, nil
}

// MustCompleteGraph is NewCompleteGraph for static sizes known to be valid.
func MustCompleteGraph(n int) Complete {
	g, err := NewCompleteGraph(n)
	if err != nil {
		panic(err)
	}
	return g
}

// N reports the number of vertices.
func (g Complete) N() int { return g.n }

// Degree is n-1 everywhere.
func (g Complete) Degree(int) int { return g.n - 1 }

// Neighbor returns the p-th other vertex in index order: 0..v-1 on ports
// 0..v-1, v+1..n-1 on ports v..n-2.
func (g Complete) Neighbor(v, p int) int {
	if p < 0 || p >= g.n-1 {
		panic(fmt.Sprintf("graph: complete graph port %d out of range", p))
	}
	if p < v {
		return p
	}
	return p + 1
}

// Automorphisms declares the full symmetric group S_n: every vertex
// permutation preserves K_n.
func (g Complete) Automorphisms() Symmetry {
	if g.n > maxSymmetryN {
		return Symmetry{}
	}
	return Symmetry{Full: true}
}
