package local

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ids"
)

// MessageAlgorithm is a deterministic LOCAL algorithm in the round-based
// formulation: per-node state machines exchanging (unbounded) messages with
// their neighbours in synchronous rounds.
type MessageAlgorithm interface {
	// Name identifies the algorithm in results and experiment tables.
	Name() string
	// NewNode creates the state machine for a vertex with the given
	// identifier and degree. Nodes know nothing else at start — in
	// particular they do not know n.
	NewNode(id, degree int) MessageNode
}

// MessageNode is one vertex's state machine. The engine drives it as:
//
//	msgs := node.Init()            // round-0 knowledge, messages for round 1
//	check node.Output()            // a decision here is recorded as round 0
//	for t := 1, 2, ...:
//	    deliver msgs, collect recv // synchronous exchange
//	    msgs = node.Round(recv)
//	    check node.Output()        // a decision here is recorded as round t
//
// Once decided a node keeps being driven (it must keep relaying messages, as
// in the unknown-n variant of the model); only its first decision is
// recorded.
type MessageNode interface {
	// Init returns the messages to send in round 1, one per port. A nil
	// slice or nil entries mean "send nothing" on those ports.
	Init() []any
	// Round consumes the messages received in the current round (recv[p]
	// arrived through port p; nil if the neighbour sent nothing) and
	// returns the messages for the next round.
	Round(recv []any) []any
	// Output reports the node's decision, if it has made one.
	Output() (val int, decided bool)
}

// RunMessage executes alg on g under assignment a in synchronous rounds,
// one deterministic loop over the nodes per round, until every node has
// decided or the round cap (default n, see WithMaxRadius) is exceeded.
// Decided nodes keep relaying. Result.Radii holds the round at which each
// node first decided.
func RunMessage(g graph.Graph, a ids.Assignment, alg MessageAlgorithm, opts ...Option) (*Result, error) {
	n := g.N()
	if len(a) != n {
		return nil, fmt.Errorf("local: assignment covers %d vertices, graph has %d", len(a), n)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	cfg := newConfig(n, opts)
	res := &Result{
		Algorithm: alg.Name(),
		Outputs:   make([]int, n),
		Radii:     make([]int, n),
	}
	if n == 0 {
		return res, nil
	}

	nodes := make([]MessageNode, n)
	outbox := make([][]any, n)
	decided := make([]bool, n)
	allDecided := true
	for v := 0; v < n; v++ {
		nodes[v] = alg.NewNode(a[v], g.Degree(v))
		outbox[v] = nodes[v].Init()
		res.Radii[v] = -1
		if out, ok := nodes[v].Output(); ok {
			res.Outputs[v] = out
			res.Radii[v] = 0
			decided[v] = true
		} else {
			allDecided = false
		}
	}
	revPorts := make([][]int, n)
	for v := 0; v < n; v++ {
		revPorts[v] = make([]int, g.Degree(v))
		for p := 0; p < g.Degree(v); p++ {
			revPorts[v][p] = portOf(g, g.Neighbor(v, p), v)
		}
	}

	for round := 1; !allDecided; round++ {
		if round > cfg.maxRadius {
			return nil, fmt.Errorf("local: %s has undecided nodes after %d rounds", alg.Name(), cfg.maxRadius)
		}
		// Deliver: inbox[v][p] is what v's port-p neighbour sent through its
		// own port towards v in this round.
		inbox := make([][]any, n)
		for v := 0; v < n; v++ {
			d := g.Degree(v)
			inbox[v] = make([]any, d)
			for p := 0; p < d; p++ {
				w := g.Neighbor(v, p)
				wp := revPorts[v][p]
				if msgs := outbox[w]; msgs != nil && wp < len(msgs) {
					inbox[v][p] = msgs[wp]
				}
			}
		}
		allDecided = true
		for v := 0; v < n; v++ {
			outbox[v] = nodes[v].Round(inbox[v])
			if decided[v] {
				continue
			}
			if out, ok := nodes[v].Output(); ok {
				res.Outputs[v] = out
				res.Radii[v] = round
				decided[v] = true
			} else {
				allDecided = false
			}
		}
	}
	return res, nil
}

// portOf finds the port through which u sees v.
func portOf(g graph.Graph, u, v int) int {
	for p := 0; p < g.Degree(u); p++ {
		if g.Neighbor(u, p) == v {
			return p
		}
	}
	panic(fmt.Sprintf("local: no port from %d to %d", u, v))
}
