package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// atlasTestFamilies builds the family zoo the equivalence suites sweep:
// linear ball growth (path, cycle), polynomial (grid), tree, dense and
// possibly disconnected (GNP), and the degenerate extremes (star, clique).
func atlasTestFamilies(t *testing.T) map[string]Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tree, err := NewRandomTree(31, rng)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGrid(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := NewGNP(26, 0.12, rng)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewGNP(18, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	star, err := NewStar(12)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Graph{
		"path":     MustPath(17),
		"cycle":    MustCycle(16),
		"tree":     tree,
		"grid":     grid,
		"gnp":      gnp,
		"gnpDense": dense,
		"complete": MustCompleteGraph(9),
		"star":     star,
		"single":   MustPath(1),
	}
}

// skeletonMismatch compares st's radius-r window with b, the radius-r ball
// a BallBuilder or NewBall gathers on g: the same vertices in the same
// discovery order, their distances and true degrees, the frontier boundary,
// and the completeness bit. It returns "" when they agree, else what
// differs.
func skeletonMismatch(g Graph, st *AtlasBall, b *Ball) string {
	r := b.Radius
	if st == nil || !st.serves(r) {
		return fmt.Sprintf("snapshot %+v cannot serve radius %d", st, r)
	}
	end := st.SizeAt(r)
	if end != len(b.Verts) {
		return fmt.Sprintf("size %d, ball has %d", end, len(b.Verts))
	}
	interior := 0
	for i, v := range b.Verts {
		if st.Verts[i] != v || st.Dist[i] != b.Dist[i] || st.Degs[i] != g.Degree(v) {
			return fmt.Sprintf("local vertex %d: (%d, dist %d, deg %d), ball has (%d, dist %d, deg %d)",
				i, st.Verts[i], st.Dist[i], st.Degs[i], v, b.Dist[i], g.Degree(v))
		}
		if b.Dist[i] < r {
			interior++
		}
	}
	if fs := st.FrontierStartAt(r); fs != interior {
		return fmt.Sprintf("frontier starts at %d, ball's at %d", fs, interior)
	}
	complete := true
	for i := interior; i < end; i++ {
		complete = complete && b.DegreeWithin(i) == g.Degree(b.Verts[i])
	}
	if st.CompleteAt(r) != complete {
		return fmt.Sprintf("CompleteAt = %v, ball complete = %v", st.CompleteAt(r), complete)
	}
	return ""
}

// TestAtlasMatchesBuilder is the structural half of the atlas guarantee:
// for every family, centre, and radius (past the eccentricity), the
// skeleton's window agrees with a BallBuilder grown step by step.
func TestAtlasMatchesBuilder(t *testing.T) {
	for name, g := range atlasTestFamilies(t) {
		atlas := NewBallAtlas(g, 0)
		maxR := g.N()/2 + 2
		for v := 0; v < g.N(); v++ {
			bb := NewBallBuilder(g, v)
			for r := 0; r <= maxR; r++ {
				if r > 0 {
					bb.Grow()
				}
				if diff := skeletonMismatch(g, atlas.Ensure(v, r), bb.Ball()); diff != "" {
					t.Fatalf("%s: v=%d r=%d: %s", name, v, r, diff)
				}
			}
		}
	}
}

// TestAtlasMatchesNewBall cross-checks against the from-scratch gatherer on
// a sample of (centre, radius) pairs, including radius far past coverage.
func TestAtlasMatchesNewBall(t *testing.T) {
	for name, g := range atlasTestFamilies(t) {
		atlas := NewBallAtlas(g, 0)
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 50; trial++ {
			v := rng.Intn(g.N())
			r := rng.Intn(g.N() + 3)
			if diff := skeletonMismatch(g, atlas.Ensure(v, r), NewBall(g, v, r)); diff != "" {
				t.Fatalf("%s: v=%d r=%d vs NewBall: %s", name, v, r, diff)
			}
		}
	}
}

// TestAtlasLazyGrowth pins the laziness contract: only requested radii are
// materialised, requests are idempotent, and completion is sticky.
func TestAtlasLazyGrowth(t *testing.T) {
	g := MustCycle(64)
	atlas := NewBallAtlas(g, 0)
	st := atlas.Ensure(3, 2)
	if st == nil || st.MaxRadius < 2 || st.MaxRadius > 3 {
		// Growth may overshoot the request by the small constant initial
		// lookahead, never more.
		t.Fatalf("Ensure(3, 2) materialised %v, want MaxRadius in [2, 3]", st)
	}
	if st.Complete {
		t.Fatal("radius-2 ball of a 64-cycle cannot be complete")
	}
	again := atlas.Ensure(3, 1)
	if again != st {
		t.Fatal("smaller-radius Ensure must return the existing snapshot")
	}
	// Growing far past the eccentricity completes and then stops growing.
	st = atlas.Ensure(3, 64)
	if st == nil || !st.Complete {
		t.Fatalf("full-coverage Ensure: %+v, want Complete", st)
	}
	if got := st.SizeAt(500); got != 64 {
		t.Fatalf("complete ball SizeAt(500) = %d, want 64", got)
	}
	if used := atlas.MemUsed(); used <= 0 {
		t.Fatalf("MemUsed() = %d after growth", used)
	}
}

// TestAtlasMemCap forces the soft cap and checks the contract: the growth
// call that crosses the cap completes (bounded overshoot), everything
// already materialised stays served, and all further materialisation is
// refused.
func TestAtlasMemCap(t *testing.T) {
	g := MustCycle(256)
	atlas := NewBallAtlas(g, 4096) // a few small balls' worth
	st := atlas.Ensure(0, 1)
	if st == nil {
		t.Fatal("tiny initial ball should fit the cap")
	}
	// The crossing call itself succeeds — the cap is enforced afterwards,
	// so the overshoot is bounded by this one centre's ball.
	if big := atlas.Ensure(1, 128); big == nil || !big.serves(128) {
		t.Fatalf("cap-crossing Ensure returned %v, want a serving snapshot", big)
	}
	if !atlas.Exhausted() {
		t.Fatal("cap hit must mark the atlas exhausted")
	}
	if atlas.Ensure(0, 1) != st {
		t.Fatal("materialised radii must stay served after exhaustion")
	}
	if atlas.Ensure(0, st.MaxRadius+1) != nil {
		t.Fatal("exhaustion is terminal: no further growth")
	}
	if atlas.Ensure(9, 3) != nil {
		t.Fatal("an exhausted atlas must not materialise a new centre")
	}
}

// TestAtlasUnlimited checks that a negative limit disables the cap.
func TestAtlasUnlimited(t *testing.T) {
	atlas := NewBallAtlas(MustCycle(128), -1)
	if atlas.Ensure(0, 64) == nil {
		t.Fatal("unlimited atlas refused growth")
	}
}

// TestAtlasConcurrentGrowth hammers one shared atlas from many goroutines
// with interleaved radii (run under -race in CI) and then verifies every
// served snapshot against the builder.
func TestAtlasConcurrentGrowth(t *testing.T) {
	g := MustCycle(48)
	atlas := NewBallAtlas(g, 0)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				v := rng.Intn(g.N())
				r := rng.Intn(30)
				st := atlas.Ensure(v, r)
				if st == nil || !st.serves(r) {
					t.Errorf("Ensure(%d, %d) under-served: %+v", v, r, st)
					return
				}
				// Spot-check the frontier boundary while others grow.
				end := st.SizeAt(r)
				fs := st.FrontierStartAt(r)
				for i := fs; i < end; i++ {
					if st.Dist[i] != r {
						t.Errorf("v=%d r=%d: frontier vertex %d at distance %d", v, r, i, st.Dist[i])
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	for v := 0; v < g.N(); v++ {
		bb := NewBallBuilder(g, v)
		for r := 0; r <= 25; r++ {
			if r > 0 {
				bb.Grow()
			}
			if diff := skeletonMismatch(g, atlas.Ensure(v, r), bb.Ball()); diff != "" {
				t.Fatalf("post-hammer mismatch at v=%d r=%d: %s", v, r, diff)
			}
		}
	}
}
