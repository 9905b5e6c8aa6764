// Package coloring implements the 3-colouring algorithms of §3 of the
// paper on consistently oriented rings:
//
//   - ColeVishkin: the classic synchronised algorithm [Cole-Vishkin 1986],
//     parameterised by the identifier bit budget, deciding at the same
//     O(log* of the ID space) radius at every vertex;
//   - Uniform: a pruned variant that needs no global knowledge at all
//     (neither n nor the ID space), committing vertices in phases of
//     doubly-exponentially growing bit guesses — the spirit of [2][4] in
//     the paper's references;
//   - FullViewGreedy: the linear-radius baseline that waits for a complete
//     view and colours greedily in decreasing-ID order.
//
// The ring algorithms read a bounded neighbourhood, so their view-path
// Decide works in fixed-size stack arrays and allocates nothing.
package coloring

import "repro/internal/local"

// segment is the part of an oriented ring a view reveals: identifiers laid
// out in successor (clockwise) order. When closed is true the ids slice is
// the entire cycle and indexing is modular; otherwise ids[center] is the
// viewing vertex and the slice spans [center-left .. center+right].
type segment struct {
	ids    []int
	center int
	closed bool
}

// none is the sentinel for "no colour constraint" in reduction cones.
const none = -1

// extractSegment writes the oriented ID sequence a view on a ring reveals
// into buf and returns it as a segment over buf. It relies on the
// OrientedRing port convention (port 0 = successor, port 1 = predecessor):
// every interior vertex of the view exposes its full port-ordered
// adjacency row, so the walk follows row[0] forward and row[1] backward
// until it hits the frontier or wraps around.
//
// buf bounds the walk. A ring of at most len(buf) vertices comes back whole
// and closed, starting at the centre. Anything longer keeps at most
// (len(buf)-1)/2 vertices on each side of the centre and comes back open,
// so an algorithm that reads no further than that from the centre sees the
// same identifiers either way.
func extractSegment(v local.View, buf []int) segment {
	// Walk the successor chain.
	buf[0] = v.CenterID()
	n := 1
	for cur := 0; ; {
		row := v.Neighbors(cur)
		if len(row) < 2 {
			break // frontier vertex: cannot tell its ports apart, stop before it
		}
		next := row[0]
		if next == 0 {
			// Wrapped: the view covers the whole ring.
			return segment{ids: buf[:n], closed: true}
		}
		if n == len(buf) {
			break
		}
		buf[n] = v.ID(next)
		n++
		cur = next
	}
	// Re-centre at h, then walk the predecessor chain into buf[:h].
	h := (len(buf) - 1) / 2
	f := min(n-1, h)
	copy(buf[h:], buf[:f+1])
	b := 0
	for cur := 0; b < h; b++ {
		row := v.Neighbors(cur)
		if len(row) < 2 {
			break
		}
		cur = row[1]
		buf[h-1-b] = v.ID(cur)
	}
	return segment{ids: buf[h-b : h+f+1], center: b}
}

// id returns the identifier at the given offset from the segment centre,
// reporting false when the position lies outside the visible range.
func (s segment) id(offset int) (int, bool) {
	pos := s.center + offset
	if uint(pos) < uint(len(s.ids)) {
		return s.ids[pos], true
	}
	if !s.closed {
		return 0, false
	}
	n := len(s.ids)
	return s.ids[(pos%n+n)%n], true
}

// chainColour returns the colour of the position at offset after k
// Cole-Vishkin iterations, which consume its k predecessors; ok=false
// when one of them lies outside the segment.
func (s segment) chainColour(offset, k int) (int, bool) {
	var chain [maxCVIterations + 1]int
	for i := 0; i <= k; i++ {
		id, ok := s.id(offset - k + i)
		if !ok {
			return 0, false
		}
		chain[i] = id
	}
	return reduceChain(chain[:k+1]), true
}
