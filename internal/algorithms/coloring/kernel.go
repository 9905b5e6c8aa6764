package coloring

import (
	"math"

	"repro/internal/graph"
	"repro/internal/local"
)

var (
	_ local.Kernel = ColeVishkin{}
	_ local.Kernel = Uniform{}
)

// DecideAll implements local.Kernel for consistently oriented rings. The
// view path commits at radius k+3 or once its view closes, which on an
// n-ring first happens at ⌊n/2⌋, so every vertex stops at
// r* = min(k+3, ⌊n/2⌋). The final colour reads offsets -(k+3)..3 only, and
// reading them modularly off the whole assignment gives the identifiers
// the view path's segment holds at r*. Any other graph is declined and
// runs on the view path.
func (cv ColeVishkin) DecideAll(run *local.KernelRun) (bool, error) {
	ring, ok := run.Atlas.Graph().(graph.Cycle)
	if !ok {
		return false, nil
	}
	k := iterationsToSix(cv.IDBits)
	r := min(k+len(classicClasses), ring.N()/2)
	for v := range run.Outs {
		if err := run.Err(v); err != nil {
			return true, err
		}
		if r > run.MaxRadius { // every vertex needs r*, so vertex 0 fails first
			return true, run.Undecided(cv.Name(), v)
		}
		run.Outs[v] = colourSegment(segment{ids: run.Assign, center: v, closed: true}, k)
		run.Radii[v] = r
	}
	return true, nil
}

// unreachable is the span bound of a position whose evaluation meets a
// noPhase position: it is undecided at every radius.
const unreachable = math.MaxInt

// DecideAll implements local.Kernel for consistently oriented rings. On a
// graph.Cycle the identifiers a radius-r view reveals are known
// analytically: ring positions v-r..v+r, or the whole ring once 2r+1 >= n.
// So the kernel evaluates the phase construction once per position, over
// the assignment read as a closed segment, with no View, no ball reads and
// no per-radius loop. Three passes over ring positions u:
//
//  1. P(u), the commit phase (noPhase when no guess admits u);
//  2. the 6-colour of u after phase P(u)'s Cole-Vishkin iterations;
//  3. the final colour of u, phase by phase so that the cone's
//     earlier-phase entries are final already, and the span [lo(u), hi(u)]
//     of offsets from u that the view path's evaluation reads.
//
// A last pass turns spans into stopping radii by the lemma below. Any
// other graph is declined and runs on the view path.
//
// Lemma. Let 2r+1 < n, so the radius-r segment around v is open and covers
// offsets -r..r. The view path decides v at radius r iff
// r >= need(v) = max(-lo(v), hi(v)), where
//
//   - phaseOf(o) succeeds iff r >= |o| + commitWindow(P(v+o)). Commitment
//     windows never shrink (4, 6, 6), so when P's window is visible so is
//     every earlier one, and each of those holds an identifier that
//     disproves its guess; when it is not, no visible identifier
//     disproves P's guess and the evaluation stops. The "disproved" exits
//     of earlier phases therefore never bind.
//   - cv6(o) reads offsets o-k..o, inside phaseOf(o)'s window (k <
//     commitWindow).
//   - finalColour(o) reads the phases of its cone o-6..o+6, the 6-colours
//     of same-phase entries and, recursively, the final colours of
//     earlier-phase entries.
//
// Hence lo(v) is the minimum over cone offsets j of j - commitWindow(P(v+j))
// and, for earlier-phase entries, j + lo(v+j); hi(v) is the maximum of the
// same terms with + commitWindow and hi. From r = n/2 on, the segment is
// the closed ring and the evaluation reads everything. So v stops at
// r*(v) = min(need(v), n/2), with the full-visibility colour of position v
// at either radius — the same function the view path evaluates. A vertex
// whose evaluation meets a noPhase position is undecided at every radius
// and fails with Undecided at the cap, as on the view path.
func (Uniform) DecideAll(run *local.KernelRun) (bool, error) {
	ring, ok := run.Atlas.Graph().(graph.Cycle)
	if !ok {
		return false, nil
	}
	n := ring.N()
	whole := uniformEval{seg: segment{ids: run.Assign, closed: true}}
	// Working memory persists across trials; Outs holds final colours and
	// Radii the hi spans until the last pass.
	scratch := run.IntScratch(3 * n)
	phase, cv, lo, hi := scratch[:n], scratch[n:2*n], scratch[2*n:], run.Radii
	for u := range phase {
		if err := run.Err(u); err != nil {
			return true, err
		}
		p, ok := whole.phaseOf(u)
		if !ok { // everything is visible, so no guess admits u's windows
			p, hi[u] = noPhase, unreachable
		}
		phase[u] = p
	}
	for u, p := range phase {
		if err := run.Err(u); err != nil {
			return true, err
		}
		if p != noPhase {
			cv[u], _ = whole.cv6(u, p) // ok: a closed segment shows every position
		}
	}
	for p := range guessBits {
		for v := range phase {
			if err := run.Err(v); err != nil {
				return true, err
			}
			if phase[v] != p {
				continue
			}
			var phases, colours [coneLen]int
			vlo, vhi := 0, 0
			for j := range phases {
				off := j - coneRadius
				u := v + off
				if uint(u) >= uint(n) {
					u = ((u % n) + n) % n
				}
				q := phase[u]
				phases[j] = q
				switch {
				case q == noPhase || q < p && hi[u] == unreachable:
					vhi = unreachable
				case q == p:
					colours[j] = cv[u]
				case q < p:
					colours[j] = run.Outs[u]
					vlo, vhi = min(vlo, off+lo[u]), max(vhi, off+hi[u])
				}
				if vhi == unreachable {
					break
				}
				w := commitWindow(q)
				vlo, vhi = min(vlo, off-w), max(vhi, off+w)
			}
			if vhi != unreachable {
				run.Outs[v] = uniformColour(p, &phases, &colours)
			}
			lo[v], hi[v] = vlo, vhi
		}
	}
	closure := n / 2
	for v, h := range hi {
		if err := run.Err(v); err != nil {
			return true, err
		}
		r := closure
		if h == unreachable {
			r = unreachable
		} else if need := max(-lo[v], h); need < closure {
			r = need
		}
		if r > run.MaxRadius {
			return true, run.Undecided(Uniform{}.Name(), v)
		}
		run.Radii[v] = r
	}
	return true, nil
}
