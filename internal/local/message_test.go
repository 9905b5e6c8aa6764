package local

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
)

// immediateMsg decides at round 0 with output = own identifier.
type immediateMsg struct{}

func (immediateMsg) Name() string { return "immediateMsg" }
func (immediateMsg) NewNode(id, degree int) MessageNode {
	return &immediateNode{id: id, degree: degree}
}

type immediateNode struct {
	id, degree int
}

func (n *immediateNode) Init() []any         { return make([]any, n.degree) }
func (n *immediateNode) Round([]any) []any   { return make([]any, n.degree) }
func (n *immediateNode) Output() (int, bool) { return n.id, true }

// fixedRoundsMsg decides at round k with output 7, sending counters around.
type fixedRoundsMsg struct{ k int }

func (fixedRoundsMsg) Name() string { return "fixedRounds" }
func (a fixedRoundsMsg) NewNode(_, degree int) MessageNode {
	return &fixedRoundsNode{k: a.k, degree: degree}
}

type fixedRoundsNode struct {
	k, degree, round int
}

func (n *fixedRoundsNode) Init() []any { return make([]any, n.degree) }
func (n *fixedRoundsNode) Round([]any) []any {
	n.round++
	return make([]any, n.degree)
}
func (n *fixedRoundsNode) Output() (int, bool) { return 7, n.round >= n.k }

// minFloodMsg floods the minimum identifier seen; a node decides once it
// has seen identifier 0. Its decision round is its distance to the vertex
// holding 0, which exercises relaying through already-decided nodes.
type minFloodMsg struct{}

func (minFloodMsg) Name() string { return "minFlood" }
func (minFloodMsg) NewNode(id, degree int) MessageNode {
	return &minFloodNode{min: id, degree: degree}
}

type minFloodNode struct {
	min, degree int
}

func (n *minFloodNode) Init() []any { return n.broadcast() }
func (n *minFloodNode) Round(recv []any) []any {
	for _, m := range recv {
		if id, ok := m.(int); ok && id < n.min {
			n.min = id
		}
	}
	return n.broadcast()
}
func (n *minFloodNode) broadcast() []any {
	msgs := make([]any, n.degree)
	for p := range msgs {
		msgs[p] = n.min
	}
	return msgs
}
func (n *minFloodNode) Output() (int, bool) { return n.min, n.min == 0 }

func TestRunMessageImmediate(t *testing.T) {
	c := graph.MustCycle(8)
	a := ids.Reversed(8)
	res, err := RunMessage(c, a, immediateMsg{})
	if err != nil {
		t.Fatalf("RunMessage: %v", err)
	}
	for v := 0; v < 8; v++ {
		if res.Outputs[v] != a[v] {
			t.Errorf("output[%d] = %d, want %d", v, res.Outputs[v], a[v])
		}
		if res.Radii[v] != 0 {
			t.Errorf("round[%d] = %d, want 0", v, res.Radii[v])
		}
	}
}

func TestRunMessageFixedRounds(t *testing.T) {
	c := graph.MustCycle(10)
	res, err := RunMessage(c, ids.Identity(10), fixedRoundsMsg{k: 4})
	if err != nil {
		t.Fatalf("RunMessage: %v", err)
	}
	for v, r := range res.Radii {
		if r != 4 {
			t.Errorf("round[%d] = %d, want 4", v, r)
		}
		if res.Outputs[v] != 7 {
			t.Errorf("output[%d] = %d, want 7", v, res.Outputs[v])
		}
	}
}

func TestRunMessageMinFloodDistances(t *testing.T) {
	// Identifier 0 sits at vertex 3; each vertex's decision round must be
	// its ring distance to vertex 3, proving decided nodes keep relaying.
	c := graph.MustCycle(9)
	perm := []int{5, 6, 7, 0, 8, 1, 2, 3, 4}
	a, err := ids.FromPerm(perm)
	if err != nil {
		t.Fatalf("FromPerm: %v", err)
	}
	res, err := RunMessage(c, a, minFloodMsg{})
	if err != nil {
		t.Fatalf("RunMessage: %v", err)
	}
	for v := 0; v < 9; v++ {
		want := c.Dist(v, 3)
		if res.Radii[v] != want {
			t.Errorf("round[%d] = %d, want %d", v, res.Radii[v], want)
		}
		if res.Outputs[v] != 0 {
			t.Errorf("output[%d] = %d, want 0", v, res.Outputs[v])
		}
	}
}

func TestRunMessageOnPathAndTree(t *testing.T) {
	// Non-regular topologies exercise per-vertex degrees and reverse ports.
	p := graph.MustPath(7)
	a, err := ids.MaxAt(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	inv := a.Clone()
	for v := range inv {
		inv[v] = 6 - a[v] // identifier 0 lands at vertex 0's max... recompute below
	}
	res, err := RunMessage(p, inv, minFloodMsg{})
	if err != nil {
		t.Fatalf("RunMessage on path: %v", err)
	}
	zeroAt := -1
	for v, id := range inv {
		if id == 0 {
			zeroAt = v
		}
	}
	for v := 0; v < 7; v++ {
		want := graph.Dist(p, v, zeroAt)
		if res.Radii[v] != want {
			t.Errorf("path round[%d] = %d, want %d", v, res.Radii[v], want)
		}
	}
}

func TestRunMessageRoundCap(t *testing.T) {
	c := graph.MustCycle(6)
	if _, err := RunMessage(c, ids.Identity(6), fixedRoundsMsg{k: 10}, WithMaxRadius(3)); err == nil {
		t.Fatal("round cap did not trigger")
	}
}

func TestRunMessageRejectsBadAssignment(t *testing.T) {
	c := graph.MustCycle(5)
	if _, err := RunMessage(c, ids.Identity(3), immediateMsg{}); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := ids.Assignment{0, 1, 1, 2, 3}
	if _, err := RunMessage(c, bad, immediateMsg{}); err == nil {
		t.Error("duplicate identifiers accepted")
	}
}

func TestRunMessageEmptyGraph(t *testing.T) {
	g := graph.MustAdj(0, nil)
	res, err := RunMessage(g, ids.Identity(0), immediateMsg{})
	if err != nil {
		t.Fatalf("RunMessage on empty graph: %v", err)
	}
	if res.N() != 0 {
		t.Errorf("N = %d, want 0", res.N())
	}
}
