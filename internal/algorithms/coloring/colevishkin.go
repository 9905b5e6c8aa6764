package coloring

import (
	"fmt"
	"math/bits"

	"repro/internal/local"
)

// cvStep performs one Cole-Vishkin colour-reduction step: find the lowest
// bit position i at which own and pred differ and recolour to 2i + own_i.
// The invariant "my colour differs from my predecessor's" is preserved:
// if two neighbours picked the same (i, b), the successor's bit i would
// both differ from and equal its predecessor's bit i.
func cvStep(own, pred int) int {
	diff := own ^ pred
	if diff == 0 {
		// Adjacent equal colours mean the distinct-ID precondition or the
		// bit budget was violated upstream: fail fast.
		panic("coloring: cvStep on equal colours")
	}
	i := bits.TrailingZeros(uint(diff))
	return 2*i + (own>>i)&1
}

// iterationsToSix returns the number of cvStep iterations needed to bring
// colours from the given bit budget strictly below 6: the log*-type
// quantity governing Cole-Vishkin's running time.
func iterationsToSix(bitBudget int) int {
	if bitBudget < 1 {
		return 0
	}
	k := 0
	maxVal := uint(1)<<uint(bitBudget) - 1
	for maxVal >= 6 {
		length := bits.Len(maxVal)
		maxVal = 2*uint(length-1) + 1
		k++
	}
	return k
}

// maxCVIterations is iterationsToSix of every budget from 63 bits up, the
// most any int identifier needs: 2^63-1 -> 125 -> 13 -> 7 -> 5. It sizes
// the stack arrays chains are reduced in.
const maxCVIterations = 4

// reduceChain runs Cole-Vishkin iterations in place over chain, the
// identifiers of k+1 consecutive positions in successor order, and returns
// the last position's colour after k = len(chain)-1 iterations. Iteration
// t leaves chain[i] holding the colour of position i+t, which reads the
// colours of i+t and its predecessor from the previous iteration.
func reduceChain(chain []int) int {
	for last := len(chain) - 1; last > 0; last-- {
		for i := 0; i < last; i++ {
			chain[i] = cvStep(chain[i+1], chain[i])
		}
	}
	return chain[0]
}

// fixedEntry marks a cone entry whose colour is already final (committed in
// an earlier phase of the uniform algorithm): it constrains its neighbours
// but is never recoloured.
const fixedEntry = -2

// reduceCone simulates colour-class reduction sub-rounds on a colour cone
// centred at index c of cur and returns the centre's final colour. In the
// sub-round for class `classes[t]`, every position whose original class
// orig is that class recolours to the smallest colour of {0,1,2} unused by
// its two neighbours' current colours. cur and orig must extend
// len(classes) positions on each side of c. Entries equal to none impose
// no constraint and never change; fixedEntry originals never recolour but
// their values constrain.
//
// Sequential in-place updating equals the parallel semantics because two
// adjacent positions never share an original colour class (the 6-colouring
// is proper among committers). That holds on a cone read modularly off a
// closed ring shorter than the cone too: every copy of a ring position
// sees copies of its true neighbours.
func reduceCone(cur, orig []int, c int, classes []int) int {
	r := len(classes)
	for t, colour := range classes {
		w := r - 1 - t
		for pos := c - w; pos <= c+w; pos++ {
			if orig[pos] != colour {
				continue
			}
			cur[pos] = freeColour(cur[pos-1], cur[pos+1])
		}
	}
	return cur[c]
}

// classicClasses is the textbook 6-to-3 schedule: only colours 5, 4, 3 need
// recolouring when the 6-colouring is globally proper.
var classicClasses = [...]int{5, 4, 3}

// allClasses recolours every committer once (in the sub-round of its
// original colour), which is what the uniform algorithm needs: a committer
// whose Cole-Vishkin colour already lies in {0,1,2} may still collide with
// a neighbour committed in an earlier phase and must re-pick.
var allClasses = [...]int{5, 4, 3, 2, 1, 0}

// freeColour returns the smallest colour in {0,1,2} unused by the two
// neighbour constraints (either may be none).
func freeColour(left, right int) int {
	for c := 0; c < 3; c++ {
		if c != left && c != right {
			return c
		}
	}
	// Unreachable: two constraints cannot block three colours.
	panic("coloring: no free colour among three")
}

// ColeVishkin is the classic synchronised 3-colouring of an oriented ring.
// Every vertex decides at radius k+3 where k = iterationsToSix(IDBits) —
// identical for all vertices, so the average and the maximum radius
// coincide, matching the paper's observation that Cole-Vishkin is already
// optimal for the average measure (Theorem 1 shows Ω(log* n) is unavoidable
// on average).
//
// IDBits is the identifier bit budget the schedule is derived from; every
// identifier in the execution must fit in it. Use ForMaxID to bind it to
// an instance.
type ColeVishkin struct {
	// IDBits is the number of bits identifiers are promised to fit in.
	IDBits int
}

var _ local.ViewAlgorithm = ColeVishkin{}

// ForMaxID returns the schedule for instances whose largest identifier is
// maxID (the standard "IDs fit in ceil(log2 n) bits" assumption).
func ForMaxID(maxID int) ColeVishkin {
	if maxID < 1 {
		return ColeVishkin{IDBits: 1}
	}
	return ColeVishkin{IDBits: bits.Len(uint(maxID))}
}

// Name implements local.ViewAlgorithm.
func (cv ColeVishkin) Name() string {
	return fmt.Sprintf("coloring/colevishkin(b=%d)", cv.IDBits)
}

// cvReach is how far from the centre ColeVishkin's final colour reads: k
// chain predecessors plus one position per reduction sub-round.
const cvReach = maxCVIterations + len(classicClasses)

// Decide simulates the full synchronised schedule (k Cole-Vishkin
// iterations, then the 6-to-3 reduction) on the visible segment. It commits
// once the view either covers the whole ring or spans the k+3 dependency
// cone of the centre's final colour.
func (cv ColeVishkin) Decide(v local.View) (int, bool) {
	k := iterationsToSix(cv.IDBits)
	if v.Radius() < k+len(classicClasses) && !v.Closed(2) {
		return 0, false
	}
	var buf [2*cvReach + 1]int
	return colourSegment(extractSegment(v, buf[:]), k), true
}

// colourSegment computes the centre's final colour from a segment spanning
// [centre-(k+3), centre+3], or from a closed ring read modularly (the cone
// then wraps, which reduceCone allows).
func colourSegment(seg segment, k int) int {
	const r = len(classicClasses)
	// cone[j] is the colour of position centre-r+j after the Cole-Vishkin
	// iterations; each chain consumes its k predecessors.
	var cone [2*r + 1]int
	for j := range cone {
		c, ok := seg.chainColour(j-r, k)
		if !ok {
			// Decide only calls this with a sufficient span; reaching this
			// branch is an engine/algorithm contract violation.
			panic("coloring: segment too short for Cole-Vishkin chain")
		}
		cone[j] = c
	}
	orig := cone
	return reduceCone(cone[:], orig[:], r, classicClasses[:])
}
