package ids

import "testing"

// TestStreamPermBijective checks that the cycle-walked Feistel evaluation
// is a permutation of [0, n) at sizes straddling the even-bit domain
// boundaries (n = 4^k exactly fills a domain; n = 4^k + 1 forces walking).
func TestStreamPermBijective(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 15, 16, 17, 63, 64, 65, 100, 1000, 4096, 4097} {
		for _, seed := range []uint64{0, 1, 0xdeadbeef} {
			p := NewStreamPerm(n, seed)
			seen := make([]bool, n)
			for v := 0; v < n; v++ {
				id := p.ID(v)
				if id < 0 || id >= n {
					t.Fatalf("n=%d seed=%d: ID(%d)=%d out of range", n, seed, v, id)
				}
				if seen[id] {
					t.Fatalf("n=%d seed=%d: ID(%d)=%d repeated", n, seed, v, id)
				}
				seen[id] = true
			}
		}
	}
}

// TestStreamPermDeterministicAndSeeded checks reproducibility under equal
// seeds and divergence under different ones.
func TestStreamPermDeterministicAndSeeded(t *testing.T) {
	const n = 512
	a, b, c := NewStreamPerm(n, 7), NewStreamPerm(n, 7), NewStreamPerm(n, 8)
	same := 0
	for v := 0; v < n; v++ {
		if a.ID(v) != b.ID(v) {
			t.Fatalf("equal seeds diverge at %d: %d vs %d", v, a.ID(v), b.ID(v))
		}
		if a.ID(v) == c.ID(v) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical permutations")
	}
}
