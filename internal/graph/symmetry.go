package graph

// Symmetry declares a graph family's automorphism group to the
// symmetry-quotient enumeration path: a generating set plus the group
// order, which is the uniform orbit size (the action on injective
// identifier assignments is free) and hence the fold weight of every
// canonical representative. The zero value declines — families without
// exploitable symmetry (GNP, arbitrary adjacency) simply do not implement
// Automorphisms, mirroring how non-closed-form families stay out of the
// Implicit backend.
type Symmetry struct {
	// Generators generate the declared group; each is a permutation of
	// {0..n-1} mapping vertex v to Generators[i][v]. The declared group
	// need not be the full automorphism group — any subgroup quotients
	// soundly, just with less reduction.
	Generators [][]int
	// Order is the exact order of the generated group, cross-checked
	// against the materialized closure by the quotient ranker. Ignored
	// when Full is set.
	Order uint64
	// Full declares the symmetric group S_n (the complete graph): the
	// closure is unmaterializable, so the ranker special-cases it — one
	// canonical representative (the identity) with weight n!.
	Full bool
}

// Declares reports whether the Symmetry actually declares a group (the
// zero value is a decline).
func (s Symmetry) Declares() bool { return s.Full || len(s.Generators) > 0 }

// Automorphisms is implemented by graph families that declare (a subgroup
// of) their automorphism group for symmetry-quotient enumeration. An
// implementation must only declare permutations σ that preserve the
// adjacency structure the executed algorithm can observe — formally, the
// radius multiset of a run must be invariant under relabeling by σ. All
// declared families guarantee this for algorithms that depend only on the
// port-forgetting labeled ball (identifier sets at each distance); a
// port-sensitive algorithm (one branching on port numbers, e.g.
// orientation-consuming Cole–Vishkin variants) is NOT invariant under the
// cycle's reflection and must not be run under a quotient.
//
// maxSymmetryN bounds the sizes at which families bother materializing
// generators: quotient enumeration is an exhaustive-path feature, and the
// rank space caps n at ids.MaxRankN long before that.
type Automorphisms interface {
	Graph
	// Automorphisms returns the declared group, or the zero Symmetry to
	// decline at this size.
	Automorphisms() Symmetry
}

// maxSymmetryN is the size cap above which families decline: generators
// are n-length permutations and the quotient ranker materializes the
// closure, so declaring at implicit-backend scales (n = 10^7) would be
// pure waste.
const maxSymmetryN = 64

// AutomorphismFamilies lists the families shipped with the package that
// declare automorphisms, for diagnostics when a quotient request names a
// family that declines.
func AutomorphismFamilies() []string {
	return []string{
		"cycle (graph.Cycle)",
		"complete graph (graph.Complete)",
	}
}

// Automorphisms declares the cycle's dihedral group: the rotation
// v -> v+1 and the reflection v -> -v, order 2n.
func (c Cycle) Automorphisms() Symmetry {
	n := c.n
	if n > maxSymmetryN {
		return Symmetry{}
	}
	rot := make([]int, n)
	ref := make([]int, n)
	for v := 0; v < n; v++ {
		rot[v] = (v + 1) % n
		ref[v] = (n - v) % n
	}
	return Symmetry{Generators: [][]int{rot, ref}, Order: uint64(2 * n)}
}
