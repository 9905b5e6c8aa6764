package sweep

// This file is the backend selector: which ball source serves the flat
// decision kernels. Per-vertex views always come from each worker's ball
// builder. The default materialised atlas is the right call up to the atlas
// memory cap; past it — sweeps at n = 10^6..10^8 — the implicit backend
// serves the same skeletons synthesized from closed forms in O(workers)
// memory.

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/graph"
)

// Backend names the ball source of a sweep's kernel runs. Results are
// byte-identical across backends for every seed, size and worker count —
// the choice trades memory against per-trial work, never bytes.
type Backend string

const (
	// BackendAtlas, the zero value, materialises one shared
	// graph.BallAtlas per size for all workers' kernels. O(n · ball)
	// memory per size.
	BackendAtlas Backend = ""
	// BackendImplicit synthesizes skeleton windows from the graph's closed
	// forms (graph.Implicit) in one per-worker scratch ball — O(workers ·
	// ball) memory total, no adjacency, no CSR — which is what lets sweeps
	// reach n = 10^7 and beyond. Every size's graph must implement
	// graph.Implicit with a comparable dynamic type.
	BackendImplicit Backend = "implicit"
)

// ImplicitUnsupportedError reports a graph the implicit backend cannot
// serve: its type does not implement graph.Implicit (or is not comparable,
// which the per-worker source cache requires). Qualifying lists the
// families that do qualify.
type ImplicitUnsupportedError struct {
	// Graph is the offending instance's Go type (fmt %T).
	Graph string
	// N is the instance's vertex count.
	N int
	// Qualifying lists the implicit families shipped by the graph package.
	Qualifying []string
}

func (e *ImplicitUnsupportedError) Error() string {
	return fmt.Sprintf("sweep: implicit backend cannot serve %s (n=%d): the graph family must provide closed-form layers; qualifying families: %s",
		e.Graph, e.N, strings.Join(e.Qualifying, ", "))
}

// validateBackend checks Spec.Backend against the built graphs.
func validateBackend(b Backend, graphs []graph.Graph) error {
	switch b {
	case BackendAtlas:
		return nil
	case BackendImplicit:
		for _, g := range graphs {
			if _, ok := g.(graph.Implicit); !ok || !reflect.TypeOf(g).Comparable() {
				return &ImplicitUnsupportedError{
					Graph:      fmt.Sprintf("%T", g),
					N:          g.N(),
					Qualifying: graph.ImplicitFamilies(),
				}
			}
		}
		return nil
	}
	return fmt.Errorf("sweep: unknown backend %q", b)
}
