package graph

import (
	"fmt"
	"math/rand"
)

// NewGrid builds the rows x cols king-free grid graph (4-neighbour mesh).
// Vertex (r, c) has index r*cols + c.
func NewGrid(rows, cols int) (*Adj, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: grid needs positive dimensions, got %dx%d", rows, cols)
	}
	var edges [][2]int
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				edges = append(edges, [2]int{v, v + 1})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{v, v + cols})
			}
		}
	}
	return NewAdj(rows*cols, edges)
}

// NewStar builds the star K_{1,n-1} with centre 0.
func NewStar(n int) (*Adj, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: star needs n >= 1, got %d", n)
	}
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return NewAdj(n, edges)
}

// NewBalancedTree builds the complete b-ary tree of the given depth
// (depth 0 is a single root). Vertices are numbered in BFS order.
func NewBalancedTree(branching, depth int) (*Adj, error) {
	if branching < 1 || depth < 0 {
		return nil, fmt.Errorf("graph: balanced tree needs branching >= 1, depth >= 0, got b=%d d=%d", branching, depth)
	}
	n := 1
	width := 1
	for i := 0; i < depth; i++ {
		width *= branching
		n += width
	}
	var edges [][2]int
	next := 1
	for parent := 0; next < n; parent++ {
		for c := 0; c < branching && next < n; c++ {
			edges = append(edges, [2]int{parent, next})
			next++
		}
	}
	return NewAdj(n, edges)
}

// NewRandomTree samples a uniformly random labelled tree on n vertices via a
// random Prüfer sequence drawn from rng. The result is deterministic given
// the rng state.
func NewRandomTree(n int, rng *rand.Rand) (*Adj, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: random tree needs n >= 1, got %d", n)
	}
	if n == 1 {
		return NewAdj(1, nil)
	}
	if n == 2 {
		return NewAdj(2, [][2]int{{0, 1}})
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	return treeFromPrufer(n, prufer)
}

func treeFromPrufer(n int, prufer []int) (*Adj, error) {
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	edges := make([][2]int, 0, n-1)
	for _, v := range prufer {
		for leaf := 0; leaf < n; leaf++ {
			if degree[leaf] == 1 {
				edges = append(edges, [2]int{leaf, v})
				degree[leaf]--
				degree[v]--
				break
			}
		}
	}
	u, w := -1, -1
	for v := 0; v < n; v++ {
		if degree[v] == 1 {
			if u == -1 {
				u = v
			} else {
				w = v
			}
		}
	}
	edges = append(edges, [2]int{u, w})
	return NewAdj(n, edges)
}

// NewGNP samples an Erdős–Rényi graph G(n, p) from rng. The result is
// deterministic given the rng state. Note the sample may be disconnected;
// callers that need connectivity should check IsConnected and resample.
func NewGNP(n int, p float64, rng *rand.Rand) (*Adj, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: G(n,p) needs n >= 0, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: G(n,p) needs p in [0,1], got %v", p)
	}
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return NewAdj(n, edges)
}
