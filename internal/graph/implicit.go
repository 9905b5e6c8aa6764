package graph

import "fmt"

// BallSource is what the execution engine actually needs from a ball store:
// the graph under execution and, per centre, an AtlasBall able to serve the
// radius-r view. *BallAtlas (materialised BFS layers over any Graph) and
// *ImplicitBalls (closed-form synthesis over an Implicit family) both
// implement it, which is what lets the flat decision kernels run unchanged
// at n = 10^7 with zero adjacency storage.
//
// Ensure returns nil only when the source cannot grow further (a
// memory-capped atlas); callers then fall back to the incremental
// BallBuilder for that vertex.
type BallSource interface {
	// Graph returns the graph the balls are drawn from.
	Graph() Graph
	// Ensure returns a snapshot able to serve the radius-r view around
	// center, or nil when the source cannot provide it.
	Ensure(center, r int) *AtlasBall
}

var (
	_ BallSource = (*BallAtlas)(nil)
	_ BallSource = (*ImplicitBalls)(nil)
)

// Implicit is implemented by graph families whose BFS ball structure is
// closed-form: per-centre layer membership, layer sizes and eccentricities
// are computable directly from the family's parameters, so sweeps need
// neither an adjacency materialisation nor a BallAtlas. Cycle and Path
// implement it; density-driven families (GNP) cannot — their layers
// depend on the sampled edge set, which IS the adjacency.
//
// Implementations must be immutable value types that are comparable (the
// engine caches and compares them by value) and must describe a connected
// graph: an empty layer below the eccentricity would be read as component
// completeness.
//
// The per-layer vertex order produced by AppendLayer must be deterministic
// for the family but is NOT required to match BFS discovery order: every
// kernel in the repository scans layer windows for existence/extrema, so
// decisions and radii are order-independent within a layer. Code that needs
// the exact discovery order must use a materialised BallAtlas or a
// BallBuilder instead.
type Implicit interface {
	Graph
	// ImplicitFamily names the family for diagnostics ("cycle", "path").
	ImplicitFamily() string
	// EccentricityOf returns max_v dist(center, v).
	EccentricityOf(center int) int
	// DistTo returns the shortest-path distance from center to v.
	DistTo(center, v int) int
	// LayerSize returns |{v : dist(center, v) == r}| for r >= 0 in closed
	// form; 0 for every r above the centre's eccentricity.
	LayerSize(center, r int) int
	// AppendLayer appends the distance-r vertices around center to buf, in
	// the family's deterministic order, for r >= 1.
	AppendLayer(buf []int, center, r int) []int
}

// ImplicitFamilies lists the implicit-capable families shipped with the
// package, for diagnostics when a backend request names a family that does
// not qualify.
func ImplicitFamilies() []string {
	return []string{
		"cycle (graph.Cycle)",
		"path (graph.Path)",
	}
}

// ImplicitBalls synthesizes AtlasBall skeletons for an Implicit family:
// layer membership from AppendLayer, layer completeness from DistTo,
// component completeness from the first empty layer — semantically
// identical to what a BallAtlas materialises, field for field, with
// O(ball) work and O(largest ball served) memory in total. It is the implicit backend's BallSource: one per
// worker, zero shared state, no adjacency anywhere.
//
// Unlike a BallAtlas, the snapshot is a single reusable scratch: Ensure
// returns the SAME *AtlasBall every call, grown append-only while the
// centre is unchanged and rebuilt from scratch when it changes. That is
// exactly the access pattern of the kernels (one centre at a time,
// reloading the snapshot's slices after every Ensure), and why an
// ImplicitBalls — unlike an atlas — must not be shared between goroutines.
type ImplicitBalls struct {
	g      Implicit
	center int
	ball   AtlasBall
}

// NewImplicitBalls returns a synthesizer over g with nothing materialised.
func NewImplicitBalls(g Implicit) *ImplicitBalls {
	return &ImplicitBalls{g: g, center: -1}
}

// Graph returns the implicit family the balls are synthesized from.
func (s *ImplicitBalls) Graph() Graph { return s.g }

// Ensure returns the scratch snapshot grown to serve the radius-r view
// around center. It never returns nil: closed-form synthesis has no memory
// cap to exhaust. The returned pointer is invalidated — contents rebuilt —
// by the next Ensure with a different centre.
func (s *ImplicitBalls) Ensure(center, r int) *AtlasBall {
	b := &s.ball
	if center != s.center {
		s.reset(center)
	}
	for !b.Complete && b.MaxRadius < r {
		s.growLayer()
	}
	return b
}

// reset re-seeds the scratch snapshot with center's radius-0 ball,
// reusing every slice's backing storage.
func (s *ImplicitBalls) reset(center int) {
	s.center = center
	deg := s.g.Degree(center)
	b := &s.ball
	b.MaxRadius = 0
	b.Complete = false
	b.Verts = append(b.Verts[:0], center)
	b.Dist = append(b.Dist[:0], 0)
	b.Degs = append(b.Degs[:0], deg)
	b.LayerEnd = append(b.LayerEnd[:0], 1)
	b.layerFull = append(b.layerFull[:0], deg == 0)
}

// growLayer synthesizes the next layer, mirroring BallAtlas.grow exactly:
// distances and true degrees per new vertex, the layer's completeness bit
// (no vertex of the layer has a neighbour beyond it), and component
// completeness on the first empty layer.
func (s *ImplicitBalls) growLayer() {
	g, c, b := s.g, s.center, &s.ball
	r := b.MaxRadius + 1
	start := len(b.Verts)
	b.Verts = g.AppendLayer(b.Verts, c, r)
	if want := g.LayerSize(c, r); len(b.Verts)-start != want {
		panic(fmt.Sprintf("graph: %s layer %d around %d: AppendLayer produced %d vertices, LayerSize says %d",
			g.ImplicitFamily(), r, c, len(b.Verts)-start, want))
	}
	full := true
	for i := start; i < len(b.Verts); i++ {
		v := b.Verts[i]
		deg := g.Degree(v)
		b.Dist = append(b.Dist, r)
		b.Degs = append(b.Degs, deg)
		// The layer is full until one of its vertices shows a neighbour
		// outside the ball; after that, no neighbour needs a look.
		for p := 0; full && p < deg; p++ {
			full = g.DistTo(c, g.Neighbor(v, p)) <= r
		}
	}
	b.layerFull = append(b.layerFull, full)
	b.LayerEnd = append(b.LayerEnd, len(b.Verts))
	b.MaxRadius = r
	if start == len(b.Verts) {
		b.Complete = true
	}
}
