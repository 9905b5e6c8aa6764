package graph

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// DefaultAtlasMemLimit is the per-atlas memory cap applied when a BallAtlas
// is created with limit 0: beyond it the atlas stops materialising layers
// and callers fall back to the incremental BallBuilder. The default is
// sized so that every cycle/path/tree/grid sweep in the repository fits
// comfortably while a dense family (GNP near the connectivity threshold,
// cliques at large n) cannot take the process down.
const DefaultAtlasMemLimit = 256 << 20 // 256 MiB

// BallAtlas is a per-graph, read-only, lazily grown store of every vertex's
// BFS ball layers. It exists because permutation sweeps run thousands of
// identifier assignments over the SAME graph instance, yet ball structure
// (discovery order, distances, degrees) depends only on the graph — so the
// BFS work of the flat decision kernels (local.Kernel) is identical across
// trials and can be paid once. Per-vertex views never read it: they come
// from the ball builder.
//
// For each centre the atlas records a SKELETON: the full BFS discovery
// order (exploring ports in increasing order, exactly the order NewBall
// and BallBuilder use), flattened into Verts/Dist/Degs arrays with
// per-radius layer offsets, plus one completeness bit per radius. The
// radius-r ball is then a PREFIX WINDOW of those arrays. No adjacency is
// stored.
//
// Growth is lazy and radius-incremental with geometric lookahead: only
// radii within a constant factor of what some trial actually reaches are
// ever materialised, and a memory cap (see NewBallAtlas) bounds the total
// footprint — when the cap is hit, Ensure returns nil and callers fall
// back to their own BallBuilder. An atlas is safe for concurrent use:
// readers are lock-free (snapshots are published via atomic pointers and
// all arrays are append-only), growth is serialised per centre.
type BallAtlas struct {
	g         Graph
	budget    atomic.Int64
	exhausted atomic.Bool
	balls     []vertexAtlas
	scratch   sync.Pool // *atlasScratch

	// Flat CSR copy of the graph, built once on first growth: BFS over
	// offset/adjacency arrays runs several times faster than through the
	// Graph interface, and every centre's growth shares it.
	csrOnce sync.Once
	csrOff  []int32
	csrAdj  []int32
	csrErr  atomic.Pointer[CSROverflowError]
}

// CSROverflowError is the typed refusal of an atlas whose graph cannot be
// CSR-flattened with int32 offsets (more than 2^31-1 vertices or edge
// endpoints). The atlas then behaves exactly like a memory-capped one —
// Ensure returns nil, callers fall back to the ball builder — but Err
// names the real cause instead of silently wrapping it into "exhausted".
// Graphs that large reach kernels only through a closed-form source
// (ImplicitBalls), which never builds a CSR.
type CSROverflowError struct {
	// Verts is the graph's vertex count.
	Verts int
	// EdgeEnds is Σ_v Degree(v), the adjacency array length the CSR would
	// have needed.
	EdgeEnds int64
}

func (e *CSROverflowError) Error() string {
	return fmt.Sprintf("graph: atlas CSR offsets overflow int32: %d vertices, %d edge endpoints",
		e.Verts, e.EdgeEnds)
}

// csrFits reports whether a graph with n vertices and edgeEnds adjacency
// entries can be CSR-flattened with int32 offsets.
func csrFits(n int, edgeEnds int64) bool {
	return int64(n) < math.MaxInt32 && edgeEnds <= math.MaxInt32
}

// vertexAtlas is one centre's slot: a mutex serialising growth and the
// atomically published immutable snapshot of the skeleton.
type vertexAtlas struct {
	mu    sync.Mutex
	state atomic.Pointer[AtlasBall]
}

// AtlasBall is an immutable snapshot of one centre's materialised skeleton.
// All exported data is read-only and shared between every worker using the
// atlas; callers must not modify it.
type AtlasBall struct {
	// MaxRadius is the largest radius whose view this snapshot can serve.
	MaxRadius int
	// Complete reports that the ball covers the centre's whole connected
	// component: views at ANY radius are servable from this snapshot.
	Complete bool
	// Verts, Dist and Degs are parallel arrays over the BFS discovery
	// order: original vertex name, distance from the centre, and true
	// degree in the graph. The radius-r ball is the prefix [0, SizeAt(r)).
	Verts []int
	Dist  []int
	Degs  []int
	// LayerEnd[r] is the number of vertices at distance <= r, r in
	// [0, MaxRadius].
	LayerEnd []int
	// layerFull[r] reports that every distance-r vertex already shows its
	// full degree inside the radius-r ball — i.e. the radius-r view is
	// provably complete (interior vertices always show full degree). One
	// flag per materialised radius turns a kernel's completeness check
	// into an O(1) lookup.
	layerFull []bool
}

// serves reports whether the snapshot can produce the radius-r view.
func (ab *AtlasBall) serves(r int) bool { return ab.Complete || ab.MaxRadius >= r }

// SizeAt returns the number of vertices in the radius-r ball. For r beyond
// MaxRadius (valid only when Complete) the ball has stopped growing.
func (ab *AtlasBall) SizeAt(r int) int {
	if r >= ab.MaxRadius {
		return ab.LayerEnd[ab.MaxRadius]
	}
	return ab.LayerEnd[r]
}

// FrontierStartAt returns the local index of the first vertex at distance
// exactly r — the boundary between interior vertices (every neighbour
// inside the ball) and the frontier layer of the radius-r ball. Equal to
// SizeAt(r) when the layer is empty.
func (ab *AtlasBall) FrontierStartAt(r int) int {
	if r <= 0 {
		return 0
	}
	if r > ab.MaxRadius {
		return ab.LayerEnd[ab.MaxRadius]
	}
	return ab.LayerEnd[r-1]
}

// CompleteAt reports whether the radius-r view is complete: every vertex
// visible at radius r shows all of its edges inside the ball. Radii past
// MaxRadius are only served when the ball is Complete, where the frontier
// is empty and completeness is trivially true.
func (ab *AtlasBall) CompleteAt(r int) bool {
	if r >= len(ab.layerFull) {
		return true
	}
	return ab.layerFull[r]
}

// memSize approximates the skeleton's footprint in bytes.
func (ab *AtlasBall) memSize() int64 {
	words := len(ab.Verts) + len(ab.Dist) + len(ab.Degs) + len(ab.LayerEnd)
	return int64(words)*8 + int64(len(ab.layerFull))
}

// atlasScratch is the pooled BFS membership scratch used during growth —
// the same epoch-stamped dense-array trick BallBuilder uses, shared
// through a pool so concurrent growth of different centres never contends
// on it.
type atlasScratch struct {
	stamp []uint32
	epoch uint32
}

// NewBallAtlas creates an empty atlas over g. memLimit caps the total
// memory (in bytes, approximately) of materialised data: 0 applies
// DefaultAtlasMemLimit, negative disables the cap. Nothing is materialised
// until the first Ensure.
//
// The cap is soft: it is charged per growth step, and the step that
// crosses it completes before all further materialisation stops — so the
// overshoot is bounded by one centre's ball and a capped atlas keeps
// serving everything it already built.
func NewBallAtlas(g Graph, memLimit int64) *BallAtlas {
	switch {
	case memLimit == 0:
		memLimit = DefaultAtlasMemLimit
	case memLimit < 0:
		memLimit = int64(1) << 62
	}
	a := &BallAtlas{g: g, balls: make([]vertexAtlas, g.N())}
	a.budget.Store(memLimit)
	return a
}

// Graph returns the graph the atlas was built over.
func (a *BallAtlas) Graph() Graph { return a.g }

// MemUsed reports the approximate bytes of materialised data.
func (a *BallAtlas) MemUsed() int64 {
	var used int64
	for i := range a.balls {
		if st := a.balls[i].state.Load(); st != nil {
			used += st.memSize()
		}
	}
	return used
}

// Exhausted reports whether the atlas hit its memory cap (or refused its
// CSR, see Err); once true, no further layers will ever be materialised.
func (a *BallAtlas) Exhausted() bool { return a.exhausted.Load() }

// Err returns the typed reason materialisation is structurally impossible
// — currently only *CSROverflowError — or nil. A merely memory-capped
// atlas reports Exhausted with a nil Err.
func (a *BallAtlas) Err() error {
	if e := a.csrErr.Load(); e != nil {
		return e
	}
	return nil
}

// csr lazily flattens the graph into offset/adjacency arrays shared by all
// growth. The copy costs O(n + E) once and is charged to the budget. On
// int32 offset overflow nothing is built: the atlas marks itself exhausted
// with a typed CSROverflowError (see Err) and returns nil arrays.
func (a *BallAtlas) csr() ([]int32, []int32) {
	a.csrOnce.Do(func() {
		g := a.g
		n := g.N()
		var edgeEnds int64
		for v := 0; v < n; v++ {
			edgeEnds += int64(g.Degree(v))
		}
		if !csrFits(n, edgeEnds) {
			a.csrErr.Store(&CSROverflowError{Verts: n, EdgeEnds: edgeEnds})
			a.exhausted.Store(true)
			return
		}
		off := make([]int32, n+1)
		for v := 0; v < n; v++ {
			off[v+1] = off[v] + int32(g.Degree(v))
		}
		adj := make([]int32, off[n])
		k := 0
		for v := 0; v < n; v++ {
			for p := 0; p < g.Degree(v); p++ {
				adj[k] = int32(g.Neighbor(v, p))
				k++
			}
		}
		a.budget.Add(-int64(len(off)+len(adj)) * 4)
		a.csrOff, a.csrAdj = off, adj
	})
	return a.csrOff, a.csrAdj
}

// Ensure returns a snapshot able to serve the radius-r view around center,
// materialising missing skeleton layers first. It returns nil when the
// memory cap prevents the required growth; already materialised radii
// remain served forever. The fast path (layers already present) is a
// single atomic load.
//
// Growth uses geometric lookahead: a call that must grow materialises past
// r (see lookahead), so a centre repeatedly asked for one more radius (the
// view engine's access pattern) re-stamps its ball O(log) times instead of
// once per radius — total build cost stays linear in the final ball size,
// and materialisation stays within a constant factor of the deepest radius
// any trial actually reaches.
func (a *BallAtlas) Ensure(center, r int) *AtlasBall {
	va := &a.balls[center]
	if st := va.state.Load(); st != nil && st.serves(r) {
		return st
	}
	if a.exhausted.Load() {
		return nil
	}
	va.mu.Lock()
	defer va.mu.Unlock()
	st := va.state.Load()
	if st != nil && st.serves(r) {
		return st
	}
	if a.exhausted.Load() {
		return nil
	}
	next := a.grow(center, st, lookahead(st, r))
	va.state.Store(next)
	return next
}

// lookahead picks the speculative growth target: a few radii on the first
// materialisation (most sweep executions stop within a handful of radii,
// and one presized growth call is much cheaper than three), then 1.5× the
// materialised radius, never less than the request.
func lookahead(st *AtlasBall, r int) int {
	if st == nil {
		if r < 3 {
			return 3
		}
		return r
	}
	if ahead := st.MaxRadius + st.MaxRadius/2 + 1; ahead > r {
		return ahead
	}
	return r
}

// grow extends st (nil: not yet materialised) to radius target (or
// completion). The growth is charged to the budget afterwards — the soft
// cap — so the snapshot always serves target, and crossing the cap stops
// all future materialisation instead of failing this one. Called with the
// centre's mutex held. The returned snapshot shares its arrays' backing
// with st — appends only ever write past the published lengths, so
// concurrent readers of older snapshots are undisturbed.
func (a *BallAtlas) grow(center int, st *AtlasBall, target int) *AtlasBall {
	csrOff, csrAdj := a.csr()
	if csrOff == nil {
		// CSR refused (int32 offset overflow): csr has already marked the
		// atlas exhausted with a typed Err; nothing can ever materialise.
		return st
	}
	sc := a.getScratch()
	defer a.scratch.Put(sc)

	next := &AtlasBall{}
	if st == nil {
		deg := int(csrOff[center+1] - csrOff[center])
		// One presized block for the three parallel int arrays: shallow
		// centres (the common case) then grow with zero reallocations.
		est := 1 + deg*target
		if est > a.g.N() {
			est = a.g.N()
		}
		block := make([]int, est, 3*est)
		next.Verts = append(block[:0:est], center)
		next.Dist = append(block[est:est:2*est], 0)
		next.Degs = append(block[2*est:2*est:3*est], deg)
		next.LayerEnd = make([]int, 1, target+1)
		next.LayerEnd[0] = 1
		next.layerFull = append(make([]bool, 0, target+1), deg == 0)
	} else {
		*next = *st
	}
	// Re-stamp the existing ball so membership tests see it. This is the
	// only repeated work across growth calls; the geometric lookahead
	// keeps its total O(final ball size).
	for _, v := range next.Verts {
		sc.stamp[v] = sc.epoch
	}

	var before int64 // first materialisation charges the initial snapshot too
	if st != nil {
		before = st.memSize()
	}
	for next.MaxRadius < target && !next.Complete {
		r := next.MaxRadius // materialising radius r+1
		fs := 0
		if r > 0 {
			fs = next.LayerEnd[r-1]
		}
		fe := next.LayerEnd[r]
		start := len(next.Verts)
		// Discover layer r+1 in frontier order × port order — the exact
		// discovery order of NewBall/BallBuilder.
		for i := fs; i < fe; i++ {
			v := next.Verts[i]
			for _, w32 := range csrAdj[csrOff[v]:csrOff[v+1]] {
				w := int(w32)
				if sc.stamp[w] == sc.epoch {
					continue
				}
				sc.stamp[w] = sc.epoch
				next.Verts = append(next.Verts, w)
				next.Dist = append(next.Dist, r+1)
				next.Degs = append(next.Degs, int(csrOff[w+1]-csrOff[w]))
			}
		}
		// The new layer is full iff none of its vertices has a neighbour
		// outside the ball: with layers 0..r+1 stamped and r+2 not yet
		// discovered, an unstamped neighbour is exactly that.
		full := true
	layer:
		for _, v := range next.Verts[start:] {
			for _, w := range csrAdj[csrOff[v]:csrOff[v+1]] {
				if sc.stamp[w] != sc.epoch {
					full = false
					break layer
				}
			}
		}
		next.layerFull = append(next.layerFull, full)
		next.LayerEnd = append(next.LayerEnd, len(next.Verts))
		next.MaxRadius++
		if start == len(next.Verts) {
			// Empty layer: the ball covers the component; every larger
			// radius is now servable (all vertices interior).
			next.Complete = true
		}
	}
	if a.budget.Add(before-next.memSize()) < 0 {
		// Soft cap: this snapshot stands (its data is already built), but
		// nothing further will ever be materialised.
		a.exhausted.Store(true)
	}
	return next
}

// getScratch checks a membership scratch out of the pool, sized to the
// graph, with a fresh epoch.
func (a *BallAtlas) getScratch() *atlasScratch {
	sc, _ := a.scratch.Get().(*atlasScratch)
	if sc == nil {
		sc = &atlasScratch{}
	}
	if n := a.g.N(); len(sc.stamp) < n {
		sc.stamp = make([]uint32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 {
		// 32-bit epoch wrapped: clear stale stamps once per 2^32 uses.
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	return sc
}
