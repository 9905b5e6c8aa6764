package graph

import (
	"math/rand"
	"testing"

	"repro/internal/ids"
)

// isAutomorphism checks that σ preserves adjacency: {u,v} is an edge iff
// {σ(u),σ(v)} is.
func isAutomorphism(g Graph, sigma []int) bool {
	n := g.N()
	if len(sigma) != n {
		return false
	}
	for v := 0; v < n; v++ {
		for p := 0; p < g.Degree(v); p++ {
			if !Adjacent(g, sigma[v], sigma[g.Neighbor(v, p)]) {
				return false
			}
		}
	}
	return true
}

// TestDeclaredSymmetries cross-checks every family's declared group: each
// generator must be a genuine automorphism, and the declared order must
// match the materialized closure (ids.NewQuotient verifies it and the
// divisibility of n!).
func TestDeclaredSymmetries(t *testing.T) {
	cases := []struct {
		name  string
		g     Automorphisms
		order uint64
	}{
		{"cycle-3", MustCycle(3), 6},
		{"cycle-7", MustCycle(7), 14},
		{"cycle-10", MustCycle(10), 20},
	}
	for _, tc := range cases {
		sym := tc.g.Automorphisms()
		if !sym.Declares() {
			t.Errorf("%s: declined, want a declared group", tc.name)
			continue
		}
		if sym.Order != tc.order {
			t.Errorf("%s: declared order %d, want %d", tc.name, sym.Order, tc.order)
		}
		for gi, sigma := range sym.Generators {
			if !isAutomorphism(tc.g, sigma) {
				t.Errorf("%s: generator %d is not an automorphism", tc.name, gi)
			}
		}
		if _, err := ids.NewQuotient(tc.g.N(), sym.Generators, sym.Order, sym.Full); err != nil {
			t.Errorf("%s: closure disagrees with declaration: %v", tc.name, err)
		}
	}
}

// TestCompleteGraph checks the zero-storage K_n value type: structural
// validity, the S_n declaration, and the quotient collapsing to a single
// representative.
func TestCompleteGraph(t *testing.T) {
	g := MustCompleteGraph(6)
	if err := Validate(g); err != nil {
		t.Fatalf("Validate(K_6): %v", err)
	}
	if NumEdges(g) != 15 {
		t.Fatalf("K_6 has %d edges, want 15", NumEdges(g))
	}
	sym := g.Automorphisms()
	if !sym.Full || !sym.Declares() {
		t.Fatalf("K_6 declared %+v, want Full", sym)
	}
	q, err := ids.NewQuotient(g.N(), sym.Generators, sym.Order, sym.Full)
	if err != nil {
		t.Fatal(err)
	}
	if q.Count() != 1 || q.Order() != 720 {
		t.Fatalf("K_6 quotient: Count=%d Order=%d, want 1 and 720", q.Count(), q.Order())
	}
	if _, err := NewCompleteGraph(1); err == nil {
		t.Fatal("NewCompleteGraph(1) succeeded")
	}
}

// TestSymmetryDeclines pins the decline behaviour: huge sizes decline
// (generators at implicit scale would be waste), and families without
// symmetry declarations simply do not implement the interface.
func TestSymmetryDeclines(t *testing.T) {
	if sym := MustCycle(maxSymmetryN + 1).Automorphisms(); sym.Declares() {
		t.Errorf("cycle above maxSymmetryN declared %+v", sym)
	}
	if sym := MustCompleteGraph(maxSymmetryN + 1).Automorphisms(); sym.Declares() {
		t.Errorf("complete graph above maxSymmetryN declared %+v", sym)
	}
	gnp, err := NewGNP(8, 0.5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Graph(gnp).(Automorphisms); ok {
		t.Error("GNP implements Automorphisms; arbitrary families must decline")
	}
}
