package coloring

import (
	"math/bits"

	"repro/internal/local"
)

// Uniform is a 3-colouring of the oriented ring that uses no global
// knowledge whatsoever — neither n nor the identifier space. It realises
// the paper's remark that 3-colouring the ring is possible "even without
// the knowledge of n" ([2][4] in its references) by a pruned, phase-based
// construction:
//
//   - Phase i guesses that identifiers fit in guessBits[i] bits; the
//     guesses grow as a tower (4, 16, 63), so the first sufficient guess is
//     reached after O(log*) phases and the final guess covers every
//     non-negative int.
//   - A vertex commits in the first phase whose guess covers every
//     identifier within its commitment window; committed vertices run the
//     phase's Cole-Vishkin schedule followed by a cross-phase-safe
//     reduction (every committer re-picks a colour in {0,1,2} in the
//     sub-round of its 6-colour, avoiding both same-phase current colours
//     and the final colours of neighbours committed in earlier phases).
//   - Vertices whose neighbourhood contains too-large identifiers stay
//     uncommitted and retry in the next phase, where they must avoid the
//     already-fixed colours around them.
//
// Every quantity above is a deterministic function of an ID window, so the
// view path evaluates the whole construction demand-driven inside Decide:
// the vertex grows its radius exactly until its own final colour is
// determined. On a graph.Cycle the kernel (DecideAll) instead computes
// every position's phase, 6-colour and final colour in three linear passes
// and derives each stopping radius in closed form; commitment windows that
// never shrink from one phase to the next are what make that form exact.
type Uniform struct{}

var _ local.ViewAlgorithm = Uniform{}

// guessBits are the per-phase identifier bit guesses. The tower 4 -> 2^4 ->
// (2^16, capped at 63) terminates in three phases for every non-negative
// int identifier, which is the log* phenomenon in miniature.
var guessBits = [...]int{4, 16, 63}

// phaseIters[p] is the number of Cole-Vishkin iterations of phase p:
// (2, 4, 4).
var phaseIters = func() (k [len(guessBits)]int) {
	for p, b := range guessBits {
		k[p] = iterationsToSix(b)
	}
	return k
}()

// noPhase is the phase of a position no guess admits (a negative
// identifier within its last window): it never commits.
const noPhase = len(guessBits)

// coneRadius is how far the reduction cone of a committer extends on each
// side: one position per sub-round of allClasses.
const coneRadius = len(allClasses)

// coneLen is the number of entries in a reduction cone.
const coneLen = 2*coneRadius + 1

// uniformReach bounds how far from a vertex its final colour reads: the
// cone reaches coneRadius, each earlier phase recursed into reaches
// coneRadius further, and the farthest entry adds its commitment window
// (at most maxCVIterations+2). The view path's segment buffer holds that
// much on each side.
const uniformReach = len(guessBits)*coneRadius + maxCVIterations + 2

// Name implements local.ViewAlgorithm.
func (Uniform) Name() string { return "coloring/uniform" }

// Decide evaluates the centre's final colour demand-driven and commits as
// soon as every input of that computation lies inside the view. An open
// view never suffices below radius coneRadius + commitWindow(0): the
// cone's outermost entries need their commitment windows visible.
func (Uniform) Decide(v local.View) (int, bool) {
	if v.Radius() < coneRadius+commitWindow(0) && !v.Closed(2) {
		return 0, false
	}
	var buf [2*uniformReach + 1]int
	return uniformEval{seg: extractSegment(v, buf[:])}.finalColour(0)
}

// uniformEval evaluates the deterministic phase construction over a visible
// segment. Every method returns ok=false when the answer depends on
// identifiers outside the segment — the signal to grow the radius.
type uniformEval struct {
	seg segment
}

// commitWindow is the half-width of the phase-i commitment predicate: the
// Cole-Vishkin chains of a committer and of both its neighbours must be
// valid, which k+2 covers. It is (4, 6, 6): it never decreases with the
// phase, so the windows of earlier phases lie inside a later one.
func commitWindow(phase int) int {
	return phaseIters[phase] + 2
}

// phaseOf returns the first phase whose guess covers every identifier
// within the commitment window of the position. ok=false means that the
// phase depends on identifiers outside the segment, or that no guess
// admits the window (a negative identifier).
func (ev uniformEval) phaseOf(offset int) (int, bool) {
	for phase, bitBudget := range guessBits {
		fits, ok := ev.windowFits(offset, commitWindow(phase), bitBudget)
		if fits && ok {
			return phase, true
		}
		if !ok {
			// The window is not fully visible and no visible identifier
			// disproves the guess: undecidable at this radius.
			return 0, false
		}
	}
	return 0, false
}

// windowFits reports whether every identifier within distance w of the
// position fits in the bit budget. fits=false with ok=true means a visible
// identifier already disproves the guess.
func (ev uniformEval) windowFits(offset, w, bitBudget int) (fits, ok bool) {
	limitExceeded := false
	allVisible := true
	for d := -w; d <= w; d++ {
		id, visible := ev.seg.id(offset + d)
		if !visible {
			allVisible = false
			continue
		}
		if bits.Len(uint(id)) > bitBudget {
			limitExceeded = true
		}
	}
	if limitExceeded {
		return false, true
	}
	return allVisible, allVisible
}

// cv6 returns the position's colour after the phase's Cole-Vishkin
// iterations (a value < 6 whenever the position committed in this phase).
func (ev uniformEval) cv6(offset, phase int) (int, bool) {
	return ev.seg.chainColour(offset, phaseIters[phase])
}

// finalColour returns the position's committed colour in {0,1,2}. It
// recurses into neighbours committed in strictly earlier phases, so the
// recursion depth is bounded by the number of phases.
func (ev uniformEval) finalColour(offset int) (int, bool) {
	var phases, colours [coneLen]int
	for j := range phases {
		p, ok := ev.phaseOf(offset + j - coneRadius)
		if !ok {
			return 0, false
		}
		phases[j] = p
	}
	phase := phases[coneRadius]
	for j, p := range phases {
		u := offset + j - coneRadius
		ok := true
		switch {
		case p == phase:
			colours[j], ok = ev.cv6(u, phase)
		case p < phase:
			colours[j], ok = ev.finalColour(u)
		}
		if !ok {
			return 0, false
		}
	}
	return uniformColour(phase, &phases, &colours), true
}

// uniformColour builds the reduction cone of a committer of the given
// phase and returns its final colour. Entry j describes the position
// j-coneRadius away: phases[j] is its commit phase and colours[j] its
// 6-colour when it commits in the same phase, or its final colour when it
// committed earlier. Entries of later phases impose nothing.
func uniformColour(phase int, phases, colours *[coneLen]int) int {
	var cur, orig [coneLen]int
	for j, p := range phases {
		switch {
		case p == phase:
			cur[j], orig[j] = colours[j], colours[j]
		case p < phase:
			// Committed earlier: a constraint, never recoloured.
			cur[j], orig[j] = colours[j], fixedEntry
		default:
			cur[j], orig[j] = none, none
		}
	}
	return reduceCone(cur[:], orig[:], coneRadius, allClasses[:])
}
