// Package problems defines the output specifications the paper's algorithms
// are measured against, with verifiers that are independent of any
// algorithm: LargestID (the leader-election variant of §2), k-Colouring
// (§3), MIS, and LeaderElection. A verifier examines the global outputs of
// one execution and reports the first violated constraint.
package problems

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/ids"
)

// Problem is an output specification over a graph with identifiers.
type Problem interface {
	// Name identifies the problem in experiment tables.
	Name() string
	// Verify reports nil iff outputs is a correct solution on g under a.
	Verify(g graph.Graph, a ids.Assignment, outputs []int) error
}

// ErrOutputLength indicates the output vector does not cover all vertices.
var ErrOutputLength = errors.New("problems: outputs length differs from vertex count")

// Outputs of LargestID.
const (
	No  = 0
	Yes = 1
)

// LargestID: every vertex outputs Yes iff it carries the globally largest
// identifier — "a classic way to elect a leader" (§2 of the paper).
type LargestID struct{}

var _ Problem = LargestID{}

// Name implements Problem.
func (LargestID) Name() string { return "largestID" }

// Verify checks that exactly the maximum-identifier vertex said Yes.
func (LargestID) Verify(g graph.Graph, a ids.Assignment, outputs []int) error {
	if len(outputs) != g.N() {
		return ErrOutputLength
	}
	leader := a.ArgMax()
	for v, out := range outputs {
		switch {
		case v == leader && out != Yes:
			return fmt.Errorf("problems: vertex %d holds the largest ID %d but answered %d", v, a[v], out)
		case v != leader && out != No:
			return fmt.Errorf("problems: vertex %d (ID %d) wrongly answered %d", v, a[v], out)
		}
	}
	return nil
}

// Coloring: adjacent vertices must output different colours from {0..K-1}.
type Coloring struct {
	// K is the number of admissible colours.
	K int
}

var _ Problem = Coloring{}

// Name implements Problem.
func (c Coloring) Name() string { return fmt.Sprintf("%d-coloring", c.K) }

// Verify checks range and properness.
func (c Coloring) Verify(g graph.Graph, a ids.Assignment, outputs []int) error {
	if len(outputs) != g.N() {
		return ErrOutputLength
	}
	for v, col := range outputs {
		if col < 0 || col >= c.K {
			return fmt.Errorf("problems: vertex %d colour %d outside [0,%d)", v, col, c.K)
		}
	}
	// Each edge once, as v < w, in graph.Edges order without building it.
	for v := range outputs {
		for p := 0; p < g.Degree(v); p++ {
			if w := g.Neighbor(v, p); v < w && outputs[v] == outputs[w] {
				return fmt.Errorf("problems: edge %d-%d monochromatic (colour %d)", v, w, outputs[v])
			}
		}
	}
	return nil
}

// MIS: vertices outputting Yes must form a maximal independent set.
type MIS struct{}

var _ Problem = MIS{}

// Name implements Problem.
func (MIS) Name() string { return "MIS" }

// Verify checks independence (no two adjacent members) and maximality
// (every non-member has a member neighbour).
func (MIS) Verify(g graph.Graph, a ids.Assignment, outputs []int) error {
	if len(outputs) != g.N() {
		return ErrOutputLength
	}
	for v, out := range outputs {
		if out != Yes && out != No {
			return fmt.Errorf("problems: vertex %d output %d is not Yes/No", v, out)
		}
	}
	for v := range outputs {
		for p := 0; p < g.Degree(v); p++ {
			if w := g.Neighbor(v, p); v < w && outputs[v] == Yes && outputs[w] == Yes {
				return fmt.Errorf("problems: adjacent vertices %d and %d both in the set", v, w)
			}
		}
	}
	for v, out := range outputs {
		if out == Yes {
			continue
		}
		dominated := false
		for p := 0; p < g.Degree(v); p++ {
			if outputs[g.Neighbor(v, p)] == Yes {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("problems: vertex %d outside the set has no member neighbour", v)
		}
	}
	return nil
}

// LeaderElection: exactly one vertex outputs Yes. Unlike LargestID it does
// not prescribe which vertex wins.
type LeaderElection struct{}

var _ Problem = LeaderElection{}

// Name implements Problem.
func (LeaderElection) Name() string { return "leaderElection" }

// Verify counts the Yes outputs.
func (LeaderElection) Verify(g graph.Graph, a ids.Assignment, outputs []int) error {
	if len(outputs) != g.N() {
		return ErrOutputLength
	}
	leaders := 0
	for v, out := range outputs {
		switch out {
		case Yes:
			leaders++
		case No:
		default:
			return fmt.Errorf("problems: vertex %d output %d is not Yes/No", v, out)
		}
	}
	if leaders != 1 {
		return fmt.Errorf("problems: %d leaders elected, want exactly 1", leaders)
	}
	return nil
}
