package ids

import (
	"errors"
	"sort"
	"testing"
)

// dihedralGens returns the rotation and reflection generating the cycle's
// automorphism group C_n ⋊ C_2 of order 2n.
func dihedralGens(n int) [][]int {
	rot := make([]int, n)
	ref := make([]int, n)
	for v := 0; v < n; v++ {
		rot[v] = (v + 1) % n
		ref[v] = (n - v) % n
	}
	return [][]int{rot, ref}
}

// orbitOf materializes the orbit of a under the group generated by gens,
// acting by (a·σ)[v] = a[σ(v)], as sorted lexicographic keys.
func orbitOf(a Assignment, gens [][]int) []string {
	key := func(p []int) string {
		b := make([]byte, len(p))
		for i, v := range p {
			b[i] = byte(v)
		}
		return string(b)
	}
	seen := map[string]bool{key(a): true}
	queue := [][]int{append([]int(nil), a...)}
	for head := 0; head < len(queue); head++ {
		for _, g := range gens {
			next := make([]int, len(a))
			for i := range next {
				next[i] = queue[head][g[i]]
			}
			if k := key(next); !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestQuotientCycleBruteForce checks the cycle's dihedral group against
// brute force at n = 3..7 (see checkQuotientBruteForce).
func TestQuotientCycleBruteForce(t *testing.T) {
	for n := 3; n <= 7; n++ {
		checkQuotientBruteForce(t, n, dihedralGens(n), uint64(2*n))
	}
}

// TestQuotientGroupsBruteForce runs the same brute-force check on groups
// that are not dihedral: two intransitive ones (the adjacent child-subtree
// swaps of the depth-1 ternary tree on 4 vertices and of the depth-2
// binary tree on 7, numbered in BFS order) and a transitive one (x -> x+1
// and x -> 2x on Z_7).
func TestQuotientGroupsBruteForce(t *testing.T) {
	for _, g := range []struct {
		name  string
		gens  [][]int
		order uint64
	}{
		{"tree4", [][]int{{0, 2, 1, 3}, {0, 1, 3, 2}}, 6},
		{"tree7", [][]int{{0, 2, 1, 5, 6, 3, 4}, {0, 1, 2, 4, 3, 5, 6}, {0, 1, 2, 3, 4, 6, 5}}, 8},
		{"affine7", [][]int{{1, 2, 3, 4, 5, 6, 0}, {0, 2, 4, 6, 1, 3, 5}}, 21},
	} {
		t.Run(g.name, func(t *testing.T) {
			checkQuotientBruteForce(t, len(g.gens[0]), g.gens, g.order)
		})
	}
}

// checkQuotientBruteForce checks, for the group of the given order that
// gens generate on n points, that the derived constraint pairs select
// exactly the lexicographic minimum of every orbit, that Count matches
// n!/order, and that CanonicalUnrank and NextCanonicalInto walk exactly
// those representatives with correct full-rank step counts.
func checkQuotientBruteForce(t *testing.T, n int, gens [][]int, order uint64) {
	t.Helper()
	q, err := NewQuotient(n, gens, order, false)
	if err != nil {
		t.Fatalf("n=%d: NewQuotient: %v", n, err)
	}
	f, _ := Factorial(n)
	if want := f / order; q.Count() != want {
		t.Fatalf("n=%d: Count = %d, want %d", n, q.Count(), want)
	}
	// Brute-force the canonical set: a perm is its orbit's lex minimum.
	buf := make([]int, n)
	UnrankInto(buf, 0)
	var canonFullRanks []uint64
	for fr := uint64(0); ; fr++ {
		a := Assignment(buf)
		orbit := orbitOf(a, gens)
		if uint64(len(orbit)) != order {
			t.Fatalf("n=%d: orbit of %v has size %d, want %d (action not free?)", n, a, len(orbit), order)
		}
		key := make([]byte, n)
		for i, v := range buf {
			key[i] = byte(v)
		}
		isMin := orbit[0] == string(key)
		if got := q.IsCanonical(a); got != isMin {
			t.Fatalf("n=%d rank=%d: IsCanonical(%v) = %v, brute force says %v", n, fr, a, got, isMin)
		}
		if isMin {
			canonFullRanks = append(canonFullRanks, fr)
		}
		if !NextInto(buf) {
			break
		}
	}
	if uint64(len(canonFullRanks)) != q.Count() {
		t.Fatalf("n=%d: brute force found %d representatives, Count says %d", n, len(canonFullRanks), q.Count())
	}
	// CanonicalUnrank must hit the same representatives in order.
	for cr, fr := range canonFullRanks {
		a, err := q.CanonicalUnrank(uint64(cr))
		if err != nil {
			t.Fatalf("n=%d: CanonicalUnrank(%d): %v", n, cr, err)
		}
		got, err := a.Rank()
		if err != nil {
			t.Fatal(err)
		}
		if got != fr {
			t.Fatalf("n=%d: CanonicalUnrank(%d) has full rank %d, want %d", n, cr, got, fr)
		}
		if r, err := q.CanonicalRank(a); err != nil || r != uint64(cr) {
			t.Fatalf("n=%d: CanonicalRank round trip = %d, %v; want %d", n, r, err, cr)
		}
	}
	// NextCanonicalInto must walk the same sequence with exact
	// full-rank deltas.
	if _, err := q.CanonicalUnrankInto(buf, 0); err != nil {
		t.Fatal(err)
	}
	full := canonFullRanks[0]
	for cr := 1; cr < len(canonFullRanks); cr++ {
		steps, ok := q.NextCanonicalInto(buf)
		if !ok {
			t.Fatalf("n=%d: NextCanonicalInto ended at representative %d of %d", n, cr, len(canonFullRanks))
		}
		full += steps
		if full != canonFullRanks[cr] {
			t.Fatalf("n=%d: representative %d at full rank %d, want %d", n, cr, full, canonFullRanks[cr])
		}
		if !q.IsCanonical(Assignment(buf)) {
			t.Fatalf("n=%d: NextCanonicalInto produced non-canonical %v", n, buf)
		}
	}
	if _, ok := q.NextCanonicalInto(buf); ok {
		t.Fatalf("n=%d: NextCanonicalInto walked past the last representative", n)
	}
}

// TestQuotientFull checks the symmetric-group fast path: one canonical
// representative (the identity) with weight n!.
func TestQuotientFull(t *testing.T) {
	const n = 9
	q, err := NewQuotient(n, nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := Factorial(n)
	if q.Order() != f || q.Count() != 1 {
		t.Fatalf("Order=%d Count=%d, want %d and 1", q.Order(), q.Count(), f)
	}
	a, err := q.CanonicalUnrank(0)
	if err != nil {
		t.Fatal(err)
	}
	for v, id := range a {
		if id != v {
			t.Fatalf("canonical representative %v is not the identity", a)
		}
	}
	if r, err := q.CanonicalRank(a); err != nil || r != 0 {
		t.Fatalf("CanonicalRank(identity) = %d, %v", r, err)
	}
	if _, ok := q.NextCanonicalInto([]int(a)); ok {
		t.Fatal("NextCanonicalInto found a second representative of S_n")
	}
}

// TestCanonicalRankRange pins the typed error at the end of the quotient
// space and on corrupt ranks far beyond it.
func TestCanonicalRankRange(t *testing.T) {
	const n = 6
	q, err := NewQuotient(n, dihedralGens(n), uint64(2*n), false)
	if err != nil {
		t.Fatal(err)
	}
	last, err := q.CanonicalUnrank(q.Count() - 1)
	if err != nil {
		t.Fatalf("CanonicalUnrank(count-1): %v", err)
	}
	if r, err := q.CanonicalRank(last); err != nil || r != q.Count()-1 {
		t.Fatalf("round trip of last representative = %d, %v", r, err)
	}
	for _, rank := range []uint64{q.Count(), q.Count() + 1, 1 << 60} {
		var cr *CanonicalRankRangeError
		if _, err := q.CanonicalUnrank(rank); !errors.As(err, &cr) {
			t.Fatalf("CanonicalUnrank(%d) = %v, want *CanonicalRankRangeError", rank, err)
		} else if cr.Rank != rank || cr.Max != q.Count() || cr.N != n {
			t.Fatalf("CanonicalRankRangeError carries %+v", cr)
		}
	}
}

// TestNewQuotientErrors exercises the typed construction failures: bad
// generators, a wrong declared order, and over-long permutations.
func TestNewQuotientErrors(t *testing.T) {
	var qe *QuotientGroupError
	if _, err := NewQuotient(4, [][]int{{0, 1, 2}}, 8, false); !errors.As(err, &qe) {
		t.Fatalf("short generator: %v, want *QuotientGroupError", err)
	}
	if _, err := NewQuotient(4, [][]int{{0, 1, 2, 2}}, 8, false); !errors.As(err, &qe) {
		t.Fatalf("non-permutation generator: %v, want *QuotientGroupError", err)
	}
	if _, err := NewQuotient(4, dihedralGens(4), 7, false); !errors.As(err, &qe) {
		t.Fatalf("wrong declared order: %v, want *QuotientGroupError", err)
	}
	var fr *FactorialRangeError
	if _, err := NewQuotient(MaxRankN+1, nil, 0, true); !errors.As(err, &fr) {
		t.Fatalf("n past MaxRankN: %v, want *FactorialRangeError", err)
	}
	if _, err := NewQuotient(6, dihedralGens(6), 12, false); err != nil {
		t.Fatalf("valid dihedral group rejected: %v", err)
	}
}

// TestCanonicalRankRejectsNonCanonical makes sure ranking a non-minimal
// orbit member fails with a typed error instead of a wrong rank.
func TestCanonicalRankRejectsNonCanonical(t *testing.T) {
	const n = 5
	q, err := NewQuotient(n, dihedralGens(n), uint64(2*n), false)
	if err != nil {
		t.Fatal(err)
	}
	var qe *QuotientGroupError
	if _, err := q.CanonicalRank(Reversed(n)); !errors.As(err, &qe) {
		t.Fatalf("CanonicalRank(reversed) = %v, want *QuotientGroupError", err)
	}
	if _, err := q.CanonicalRank(Identity(n + 1)); err == nil {
		t.Fatal("CanonicalRank accepted a wrong-length assignment")
	}
}

// FuzzCanonicalUnrank feeds arbitrary ranks (including far-out-of-range
// ones) through CanonicalUnrankInto: the contract is a typed error or a
// canonical representative, never a panic, and valid ranks must round-trip.
func FuzzCanonicalUnrank(f *testing.F) {
	f.Add(uint64(0), 5)
	f.Add(uint64(11), 6)
	f.Add(uint64(1)<<63, 7)
	f.Fuzz(func(t *testing.T, rank uint64, n int) {
		if n < 3 || n > 8 {
			return
		}
		q, err := NewQuotient(n, dihedralGens(n), uint64(2*n), false)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]int, n)
		a, err := q.CanonicalUnrankInto(buf, rank)
		if rank >= q.Count() {
			var cr *CanonicalRankRangeError
			if !errors.As(err, &cr) {
				t.Fatalf("rank %d past %d: err = %v, want *CanonicalRankRangeError", rank, q.Count(), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid rank %d: %v", rank, err)
		}
		if !q.IsCanonical(a) {
			t.Fatalf("rank %d produced non-canonical %v", rank, a)
		}
		if r, err := q.CanonicalRank(a); err != nil || r != rank {
			t.Fatalf("round trip = %d, %v; want %d", r, err, rank)
		}
	})
}
