// Package local implements the LOCAL model of synchronised distributed
// computing in the two equivalent formulations the paper uses:
//
//   - the view (ball) engine: every node grows a radius around itself and
//     outputs a function of the ball it sees, the formulation §1 of the
//     paper calls "more convenient"; and
//   - the message engine: per-node state machines exchanging unbounded
//     messages in synchronous rounds, matching the round-based definition,
//     run as one deterministic loop over the nodes per round.
//
// The engines agree: a full-information message algorithm that gathers balls
// decides at exactly the radius the view engine reports (see gather.go and
// the cross-engine tests).
//
// Nodes do not know n. A node may decide its output at any radius/round
// while (in the message engine) continuing to relay messages, which is the
// unknown-n variant of the model the paper works in. The recorded quantity
// r(v) is the radius at which v decides; the two measures under study are
// max_v r(v) and avg_v r(v).
package local

import (
	"repro/internal/graph"
	"repro/internal/ids"
)

// View is the information a vertex has gathered at its current radius: the
// induced ball around it plus the identifiers of the ball's vertices.
// Algorithms must treat a View as read-only and must not retain it after
// Decide returns; the engine reuses the underlying storage.
// A View also exposes the true degree of every visible vertex: a vertex's
// degree is part of its initial state in the LOCAL model, so it reaches the
// viewing node together with its identifier. This is what makes "I have
// reached an endpoint of the path" (§2 of the paper) detectable at radius
// exactly the distance to the endpoint.
type View struct {
	ball    *graph.Ball
	ids     []int // parallel to ball.Verts
	degrees []int // parallel to ball.Verts: true degree of each vertex
	// frontierStart is the local index of the first vertex discovered at
	// the current radius; algorithms that only need to inspect newly
	// revealed vertices can start there.
	frontierStart int
}

// Radius reports the gathering radius of the view.
func (v View) Radius() int { return v.ball.Radius }

// Size reports the number of visible vertices.
func (v View) Size() int { return v.ball.Size() }

// CenterID returns the identifier of the viewing vertex.
func (v View) CenterID() int { return v.ids[0] }

// ID returns the identifier of local vertex i.
func (v View) ID(i int) int { return v.ids[i] }

// MaxIDIn returns the largest identifier among local vertices [from, to),
// or -1 when the range is empty. It is the bulk form of ID for scan-heavy
// algorithms (largest-ID pruning checks its whole frontier every radius):
// one call replaces a method call per element.
func (v View) MaxIDIn(from, to int) int {
	max := -1
	for _, id := range v.ids[from:to] {
		if id > max {
			max = id
		}
	}
	return max
}

// Dist returns the distance of local vertex i from the centre.
func (v View) Dist(i int) int { return v.ball.Dist[i] }

// DegreeWithin returns the degree of local vertex i inside the view.
func (v View) DegreeWithin(i int) int { return v.ball.DegreeWithin(i) }

// TrueDegree returns the actual degree of local vertex i in the underlying
// graph (degrees travel with identifiers in the LOCAL model).
func (v View) TrueDegree(i int) int { return v.degrees[i] }

// Complete reports whether the view provably covers the node's whole
// connected component: every visible vertex shows all of its edges inside
// the view. No correct unknown-n algorithm on connected graphs can need a
// larger radius than the first complete view.
//
// Only the current frontier needs checking: a vertex at distance < Radius
// has all its neighbours within distance Radius, hence visible. This keeps
// the check O(frontier) so that radius-growth loops stay linear in the
// final ball size.
func (v View) Complete() bool {
	for i := v.frontierStart; i < v.Size(); i++ {
		if v.ball.DegreeWithin(i) != v.degrees[i] {
			return false
		}
	}
	return true
}

// Neighbors returns the local indices adjacent to local vertex i, in i's
// port order. The returned slice is engine-owned; do not modify.
func (v View) Neighbors(i int) []int { return v.ball.Adj[i] }

// FrontierStart returns the local index of the first vertex discovered at
// the current radius. Equal to Size() when the last Grow added nothing.
func (v View) FrontierStart() int { return v.frontierStart }

// Closed reports whether every visible vertex has degree k within the view.
// On a family of connected k-regular graphs (cycles: k=2) this certifies
// that the view is the entire graph.
func (v View) Closed(k int) bool { return v.ball.AllDegreesWithin(k) }

// Clone returns a deep copy of the view that remains valid after Decide
// returns. Algorithms must not retain the View they are handed — the engine
// recycles its storage across radii and across vertices — so any probe or
// instrumentation that wants to keep a view must keep a Clone.
func (v View) Clone() View {
	return View{
		ball:          v.ball.Clone(),
		ids:           append([]int(nil), v.ids...),
		degrees:       append([]int(nil), v.degrees...),
		frontierStart: v.frontierStart,
	}
}

// Canonical renders the view (structure + identifiers) as a deterministic
// string; two vertices with isomorphic ID-labelled balls canonicalise
// identically.
func (v View) Canonical() string {
	// The ball canonicaliser asks for IDs by original vertex name; build
	// the orig->local index once so canonicalisation stays O(size), not
	// O(size²) via a per-vertex scan of Verts.
	local := v.ids
	idx := make(map[int]int, len(v.ball.Verts))
	for i, o := range v.ball.Verts {
		idx[o] = i
	}
	return v.ball.Canonical(func(orig int) int {
		if i, ok := idx[orig]; ok {
			return local[i]
		}
		return -1
	})
}

// ViewAlgorithm is a deterministic LOCAL algorithm in the ball formulation:
// at each radius the node inspects its view and either commits to an output
// or asks for a larger radius.
type ViewAlgorithm interface {
	// Name identifies the algorithm in results and experiment tables.
	Name() string
	// Decide inspects the view and returns (output, true) to commit, or
	// (_, false) to grow the radius by one and be called again.
	Decide(v View) (output int, done bool)
}

// RunView executes alg at every vertex of g under the identifier assignment
// a, growing each vertex's radius until it decides. It returns the outputs
// and the per-vertex decision radii.
//
// The engine enforces a safety cap (default: n, configurable with
// WithMaxRadius); an algorithm still undecided at the cap is reported as an
// error rather than looping forever — no correct unknown-n algorithm on a
// connected graph needs radius beyond the point where its ball covers the
// whole graph.
func RunView(g graph.Graph, a ids.Assignment, alg ViewAlgorithm, opts ...Option) (*Result, error) {
	// A fresh Runner is dropped on return, so the caller takes ownership of
	// the Result it would otherwise recycle.
	return NewRunner().Run(g, a, alg, opts...)
}

// labelsFor extends the parallel identifier and degree slices to cover all
// ball vertices, reusing already-filled prefixes.
func labelsFor(g graph.Graph, b *graph.Ball, a ids.Assignment, idPrefix, degPrefix []int) (idsOut, degOut []int) {
	idsOut, degOut = idPrefix, degPrefix
	for i := len(idsOut); i < len(b.Verts); i++ {
		idsOut = append(idsOut, a[b.Verts[i]])
		degOut = append(degOut, g.Degree(b.Verts[i]))
	}
	return idsOut, degOut
}
