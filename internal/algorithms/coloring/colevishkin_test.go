package coloring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/problems"
)

func TestCVStepInvariant(t *testing.T) {
	// The heart of Cole-Vishkin: distinct inputs yield distinct outputs
	// along an oriented chain: step(b, a) != step(c, b) whenever a != b != c.
	prop := func(aRaw, bRaw, cRaw uint16) bool {
		a, b, c := int(aRaw), int(bRaw), int(cRaw)
		if a == b || b == c {
			return true // precondition violated; nothing to check
		}
		return cvStep(b, a) != cvStep(c, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Errorf("cvStep invariant: %v", err)
	}
}

func TestCVStepShrinks(t *testing.T) {
	// One step from b-bit colours lands below 2(b-1)+2.
	prop := func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw), int(bRaw)
		if a == b {
			return true
		}
		out := cvStep(b, a)
		return out <= 2*15+1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("cvStep range: %v", err)
	}
}

func TestCVStepPanicsOnEqual(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cvStep(5,5) did not panic")
		}
	}()
	cvStep(5, 5)
}

func TestIterationsToSix(t *testing.T) {
	tests := []struct {
		bits, want int
	}{
		{0, 0},
		{1, 0},  // values <= 1 < 6 already
		{2, 0},  // values <= 3 < 6
		{3, 1},  // 7 -> 5
		{4, 2},  // 15 -> 7 -> 5
		{16, 4}, // 65535 -> 31 -> 9 -> 7 -> 5
		{62, 4}, // 2^62-1 -> 123 -> 13 -> 7 -> 5
		{63, 4}, // 2^63-1 -> 125 -> 13 -> 7 -> 5: every non-negative int
	}
	for _, tt := range tests {
		if got := iterationsToSix(tt.bits); got != tt.want {
			t.Errorf("iterationsToSix(%d) = %d, want %d", tt.bits, got, tt.want)
		}
	}
}

func TestIterationsToSixLogStarGrowth(t *testing.T) {
	// The schedule length grows like log*: doubling the bit budget must add
	// at most one iteration.
	prev := iterationsToSix(2)
	for b := 3; b <= 62; b++ {
		cur := iterationsToSix(b)
		if cur < prev {
			t.Errorf("iterationsToSix not monotone at %d", b)
		}
		if cur > prev+1 {
			t.Errorf("iterationsToSix jumps by more than 1 at %d", b)
		}
		prev = cur
	}
	if iterationsToSix(62) > 5 {
		t.Errorf("iterationsToSix(62) = %d, want <= 5 (log* is tiny)", iterationsToSix(62))
	}
	// The chain stack arrays hold maxCVIterations+1 entries: no budget,
	// however large, may need more.
	for b := 0; b <= 80; b++ {
		if k := iterationsToSix(b); k > maxCVIterations {
			t.Errorf("iterationsToSix(%d) = %d exceeds maxCVIterations %d", b, k, maxCVIterations)
		}
	}
}

func TestFreeColour(t *testing.T) {
	tests := []struct {
		left, right, want int
	}{
		{none, none, 0},
		{0, none, 1},
		{none, 0, 1},
		{0, 1, 2},
		{1, 0, 2},
		{2, 0, 1},
		{1, 2, 0},
		{5, 4, 0}, // non-final constraints outside {0,1,2} block nothing below
	}
	for _, tt := range tests {
		if got := freeColour(tt.left, tt.right); got != tt.want {
			t.Errorf("freeColour(%d,%d) = %d, want %d", tt.left, tt.right, got, tt.want)
		}
	}
}

func TestColeVishkinProperOnRandomRings(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{3, 4, 5, 6, 7, 16, 64, 257, 1000} {
		c := graph.MustCycle(n)
		for trial := 0; trial < 3; trial++ {
			a := ids.Random(n, rng)
			alg := ForMaxID(a.MaxID())
			res, err := local.RunView(c, a, alg)
			if err != nil {
				t.Fatalf("n=%d: RunView: %v", n, err)
			}
			if err := (problems.Coloring{K: 3}).Verify(c, a, res.Outputs); err != nil {
				t.Errorf("n=%d trial %d: %v", n, trial, err)
			}
		}
	}
}

func TestColeVishkinSameRadiusEverywhere(t *testing.T) {
	// The paper's observation: Cole-Vishkin spends the same O(log* n) at
	// every vertex, so the average equals the maximum.
	const n = 512
	c := graph.MustCycle(n)
	a := ids.Random(n, rand.New(rand.NewSource(9)))
	alg := ForMaxID(a.MaxID())
	res, err := local.RunView(c, a, alg)
	if err != nil {
		t.Fatalf("RunView: %v", err)
	}
	want := iterationsToSix(alg.IDBits) + 3
	for v, r := range res.Radii {
		if r != want {
			t.Errorf("vertex %d: radius %d, want %d", v, r, want)
		}
	}
	if res.AvgRadius() != float64(res.MaxRadius()) {
		t.Errorf("avg %v != max %d", res.AvgRadius(), res.MaxRadius())
	}
}

func TestColeVishkinRadiusIsLogStar(t *testing.T) {
	// Radii stay single-digit across three orders of magnitude of n.
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{8, 64, 512, 4096} {
		c := graph.MustCycle(n)
		a := ids.Random(n, rng)
		res, err := local.RunView(c, a, ForMaxID(a.MaxID()))
		if err != nil {
			t.Fatalf("RunView: %v", err)
		}
		if res.MaxRadius() > 8 {
			t.Errorf("n=%d: MaxRadius %d, want <= 8 (log* flat)", n, res.MaxRadius())
		}
	}
}

func TestColeVishkinSmallRingsCloseEarly(t *testing.T) {
	// On tiny rings the view wraps before the k+3 schedule completes; the
	// closed path must still deliver a proper colouring.
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 4, 5} {
		c := graph.MustCycle(n)
		for trial := 0; trial < 10; trial++ {
			a := ids.Random(n, rng)
			res, err := local.RunView(c, a, ForMaxID(a.MaxID()))
			if err != nil {
				t.Fatalf("n=%d: RunView: %v", n, err)
			}
			if err := (problems.Coloring{K: 3}).Verify(c, a, res.Outputs); err != nil {
				t.Errorf("n=%d trial %d: %v", n, trial, err)
			}
			if res.MaxRadius() > n/2 {
				t.Errorf("n=%d: radius %d beyond closure %d", n, res.MaxRadius(), n/2)
			}
		}
	}
}

func TestColeVishkinExhaustiveTinyRings(t *testing.T) {
	// All 720 permutations of C6: no identifier pattern may break the
	// colouring or the uniform-radius property.
	c := graph.MustCycle(6)
	perm := []int{0, 1, 2, 3, 4, 5}
	var rec func(k int)
	var count int
	rec = func(k int) {
		if k == len(perm) {
			count++
			a, err := ids.FromPerm(perm)
			if err != nil {
				t.Fatal(err)
			}
			res, err := local.RunView(c, a, ForMaxID(5))
			if err != nil {
				t.Fatalf("perm %v: %v", perm, err)
			}
			if err := (problems.Coloring{K: 3}).Verify(c, a, res.Outputs); err != nil {
				t.Fatalf("perm %v: %v", perm, err)
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if count != 720 {
		t.Fatalf("enumerated %d permutations, want 720", count)
	}
}

// TestColeVishkinClosedRingsMatchMessage pins the closed-ring case of the
// view path, which reads its cone modularly even when the cone wraps the
// ring, against the round-based message implementation: identical colours
// on every permutation of rings of 3 to 6 vertices and on random rings up
// to 16, under the tight bit budget and a 16-bit one (k = 4).
func TestColeVishkinClosedRingsMatchMessage(t *testing.T) {
	check := func(a ids.Assignment) {
		c := graph.MustCycle(len(a))
		for _, b := range []int{ForMaxID(a.MaxID()).IDBits, 16} {
			view, err := local.RunView(c, a, ColeVishkin{IDBits: b})
			if err != nil {
				t.Fatalf("%v b=%d: RunView: %v", a, b, err)
			}
			msg, err := local.RunMessage(c, a, ColeVishkinMessage{IDBits: b}, local.WithMaxRadius(16))
			if err != nil {
				t.Fatalf("%v b=%d: RunMessage: %v", a, b, err)
			}
			for v := range a {
				if view.Outputs[v] != msg.Outputs[v] {
					t.Fatalf("%v b=%d vertex %d: view colour %d, message colour %d", a, b, v, view.Outputs[v], msg.Outputs[v])
				}
			}
		}
	}
	for n := 3; n <= 6; n++ {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				check(append(ids.Assignment(nil), perm...))
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
	}
	rng := rand.New(rand.NewSource(63))
	for n := 7; n <= 16; n++ {
		for trial := 0; trial < 20; trial++ {
			check(ids.Random(n, rng))
		}
	}
}
