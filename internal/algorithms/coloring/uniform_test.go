package coloring

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/problems"
)

func TestUniformProperAcrossSizes(t *testing.T) {
	// Sizes straddle the phase boundaries: n <= 16 commits in phase 0
	// everywhere, larger n mixes phase-0 and phase-1 committers (IDs >= 16
	// appear), which exercises the cross-phase reduction.
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{3, 4, 5, 8, 15, 16, 17, 40, 100, 333, 1024} {
		c := graph.MustCycle(n)
		for trial := 0; trial < 4; trial++ {
			a := ids.Random(n, rng)
			res, err := local.RunView(c, a, Uniform{})
			if err != nil {
				t.Fatalf("n=%d: RunView: %v", n, err)
			}
			if err := (problems.Coloring{K: 3}).Verify(c, a, res.Outputs); err != nil {
				t.Errorf("n=%d trial %d: %v", n, trial, err)
			}
		}
	}
}

func TestUniformExhaustiveTinyRings(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
		c := graph.MustCycle(n)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				a, err := ids.FromPerm(perm)
				if err != nil {
					t.Fatal(err)
				}
				res, err := local.RunView(c, a, Uniform{})
				if err != nil {
					t.Fatalf("n=%d perm %v: %v", n, perm, err)
				}
				if err := (problems.Coloring{K: 3}).Verify(c, a, res.Outputs); err != nil {
					t.Fatalf("n=%d perm %v: %v", n, perm, err)
				}
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
}

func TestUniformRadiusBoundedByConstant(t *testing.T) {
	// No knowledge of n, yet the radius must stay a small constant across
	// three orders of magnitude: this is the "O(log* n) without n" claim.
	rng := rand.New(rand.NewSource(13))
	maxSeen := 0
	for _, n := range []int{8, 64, 512, 4096, 16384} {
		c := graph.MustCycle(n)
		a := ids.Random(n, rng)
		res, err := local.RunView(c, a, Uniform{})
		if err != nil {
			t.Fatalf("n=%d: RunView: %v", n, err)
		}
		if res.MaxRadius() > maxSeen {
			maxSeen = res.MaxRadius()
		}
	}
	if maxSeen > 24 {
		t.Errorf("uniform colouring radius reached %d; want a small constant", maxSeen)
	}
}

func TestUniformAverageTracksMax(t *testing.T) {
	// 3-colouring is the paper's "second type" of problem: averaging does
	// not help. The average radius must stay within a constant factor of
	// the maximum.
	const n = 2048
	c := graph.MustCycle(n)
	a := ids.Random(n, rand.New(rand.NewSource(14)))
	res, err := local.RunView(c, a, Uniform{})
	if err != nil {
		t.Fatalf("RunView: %v", err)
	}
	avg := res.AvgRadius()
	max := float64(res.MaxRadius())
	if avg < max/4 {
		t.Errorf("avg %v much smaller than max %v; colouring should not average down", avg, max)
	}
}

func TestUniformSkewedIDMagnitudes(t *testing.T) {
	// Adversarial magnitude layout: a block of tiny IDs (phase-0
	// committers) meets a block of huge IDs (later phases). The boundary is
	// where cross-phase collisions would appear if the reduction were
	// wrong.
	const n = 64
	c := graph.MustCycle(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i // 0..15 are phase-0-eligible IDs, the rest larger
	}
	a, err := ids.FromPerm(perm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := local.RunView(c, a, Uniform{})
	if err != nil {
		t.Fatalf("RunView: %v", err)
	}
	if err := (problems.Coloring{K: 3}).Verify(c, a, res.Outputs); err != nil {
		t.Errorf("sorted magnitudes: %v", err)
	}

	// Alternating small/huge IDs force maximal phase mixing.
	alt := make([]int, n)
	small, big := 0, n/2
	for i := range alt {
		if i%2 == 0 {
			alt[i] = small
			small++
		} else {
			alt[i] = big
			big++
		}
	}
	a2, err := ids.FromPerm(alt)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := local.RunView(c, a2, Uniform{})
	if err != nil {
		t.Fatalf("RunView alternating: %v", err)
	}
	if err := (problems.Coloring{K: 3}).Verify(c, a2, res2.Outputs); err != nil {
		t.Errorf("alternating magnitudes: %v", err)
	}
}

func TestFullViewGreedyProper(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{3, 4, 9, 32} {
		c := graph.MustCycle(n)
		a := ids.Random(n, rng)
		res, err := local.RunView(c, a, FullViewGreedy{})
		if err != nil {
			t.Fatalf("n=%d: RunView: %v", n, err)
		}
		if err := (problems.Coloring{K: 3}).Verify(c, a, res.Outputs); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		for v, r := range res.Radii {
			if r != n/2 {
				t.Errorf("n=%d vertex %d: radius %d, want closure %d", n, v, r, n/2)
			}
		}
	}
}

func TestFullViewGreedyOnPath(t *testing.T) {
	// The greedy baseline is not ring-specific: paths are 2-colourable by
	// greedy in decreasing-ID order within 3 colours.
	p := graph.MustPath(9)
	a := ids.Random(9, rand.New(rand.NewSource(16)))
	res, err := local.RunView(p, a, FullViewGreedy{})
	if err != nil {
		t.Fatalf("RunView: %v", err)
	}
	if err := (problems.Coloring{K: 3}).Verify(p, a, res.Outputs); err != nil {
		t.Errorf("path colouring: %v", err)
	}
}

func TestExtractSegmentOpenAndClosed(t *testing.T) {
	c := graph.MustCycle(9)
	a := ids.Identity(9)
	var segs []segment
	probe := segProbe{radius: 2, out: &segs}
	if _, err := local.RunView(c, a, probe); err != nil {
		t.Fatalf("RunView: %v", err)
	}
	if len(segs) != 9 {
		t.Fatalf("probed %d segments", len(segs))
	}
	s0 := segs[0]
	if s0.closed {
		t.Fatal("radius-2 view of C9 reported closed")
	}
	wantIDs := []int{7, 8, 0, 1, 2}
	if len(s0.ids) != len(wantIDs) || s0.center != 2 {
		t.Fatalf("segment = %+v, want ids %v centred at 2", s0, wantIDs)
	}
	for i := range wantIDs {
		if s0.ids[i] != wantIDs[i] {
			t.Fatalf("segment ids = %v, want %v", s0.ids, wantIDs)
		}
	}

	var closed []segment
	if _, err := local.RunView(c, a, segProbe{radius: 4, out: &closed}); err != nil {
		t.Fatalf("RunView closed: %v", err)
	}
	if !closed[0].closed {
		t.Fatal("radius-4 view of C9 not closed")
	}
	if len(closed[0].ids) != 9 {
		t.Fatalf("closed segment has %d ids", len(closed[0].ids))
	}
	// The closed walk starts at the centre and follows successors.
	for i, id := range closed[0].ids {
		if id != i {
			t.Fatalf("closed ids = %v, want 0..8 in ring order", closed[0].ids)
		}
	}
}

// TestExtractSegmentClipped: a view larger than the buffer keeps the
// positions nearest the centre and reports itself open, whether the view
// is an open arc or a ring too long for the buffer.
func TestExtractSegmentClipped(t *testing.T) {
	c := graph.MustCycle(9)
	a := ids.Identity(9)
	for _, radius := range []int{3, 4} {
		var segs []segment
		if _, err := local.RunView(c, a, segProbe{radius: radius, buf: 5, out: &segs}); err != nil {
			t.Fatalf("RunView: %v", err)
		}
		s := segs[0]
		if s.closed || s.center != 2 || !reflect.DeepEqual(s.ids, []int{7, 8, 0, 1, 2}) {
			t.Errorf("radius %d, buffer 5: segment %+v, want open [7 8 0 1 2] centred at 2", radius, s)
		}
	}
	var whole []segment
	if _, err := local.RunView(c, a, segProbe{radius: 4, buf: 9, out: &whole}); err != nil {
		t.Fatalf("RunView: %v", err)
	}
	if s := whole[3]; !s.closed || !reflect.DeepEqual(s.ids, []int{3, 4, 5, 6, 7, 8, 0, 1, 2}) {
		t.Errorf("radius 4, buffer 9: segment %+v, want the closed ring from 3", s)
	}
}

// segProbe records the extracted segment of every vertex at a radius,
// walked into a buffer of buf entries (2*radius+1 when zero).
type segProbe struct {
	radius, buf int
	out         *[]segment
}

func (segProbe) Name() string { return "segProbe" }
func (p segProbe) Decide(v local.View) (int, bool) {
	if v.Radius() < p.radius {
		return 0, false
	}
	buf := p.buf
	if buf == 0 {
		buf = 2*p.radius + 1
	}
	*p.out = append(*p.out, extractSegment(v, make([]int, buf)))
	return 0, true
}

func TestSegmentID(t *testing.T) {
	s := segment{ids: []int{10, 11, 12, 13, 14}, center: 2}
	if id, ok := s.id(0); !ok || id != 12 {
		t.Errorf("id(0) = %d,%v", id, ok)
	}
	if id, ok := s.id(-2); !ok || id != 10 {
		t.Errorf("id(-2) = %d,%v", id, ok)
	}
	if _, ok := s.id(3); ok {
		t.Error("id(3) should be out of range")
	}
	if _, ok := s.id(-3); ok {
		t.Error("id(-3) should be out of range")
	}

	cs := segment{ids: []int{5, 6, 7}, center: 0, closed: true}
	if id, ok := cs.id(-1); !ok || id != 7 {
		t.Errorf("closed id(-1) = %d,%v, want 7", id, ok)
	}
	if id, ok := cs.id(4); !ok || id != 6 {
		t.Errorf("closed id(4) = %d,%v, want 6", id, ok)
	}
	if id, ok := cs.id(-7); !ok || id != 7 {
		t.Errorf("closed id(-7) = %d,%v, want 7", id, ok)
	}
}
