package sweep

// This file is the backend selector: how workers source per-vertex balls.
// The default materialised atlas is the right call up to the atlas memory
// cap; past it — sweeps at n = 10^6..10^8 — the implicit backend serves the
// same skeletons synthesized from closed forms in O(workers) memory.

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/graph"
)

// Backend names a ball-sourcing strategy for sweep workers. The zero value
// is automatic selection (the shared atlas); results are byte-identical
// across all backends for every seed,
// size and worker count — the choice trades memory against per-trial work,
// never bytes.
type Backend string

const (
	// BackendAuto picks the default: the shared per-size atlas.
	BackendAuto Backend = ""
	// BackendAtlas materialises one shared graph.BallAtlas per size; all
	// workers serve views and kernels from it. O(n · ball) memory per size.
	BackendAtlas Backend = "atlas"
	// BackendBuilder runs every vertex on the per-worker ball builder — no
	// shared state, the baseline the other backends are proven against.
	BackendBuilder Backend = "builder"
	// BackendImplicit synthesizes skeleton windows from the graph's closed
	// forms (graph.Implicit) in one per-worker scratch ball — O(workers ·
	// ball) memory total, no adjacency, no CSR — which is what lets sweeps
	// reach n = 10^7 and beyond. Every size's graph must implement
	// graph.Implicit with a comparable dynamic type.
	BackendImplicit Backend = "implicit"
)

// ParseBackend validates a user-facing backend name ("" selects auto).
// Unknown names return an *UnknownBackendError.
func ParseBackend(s string) (Backend, error) {
	switch b := Backend(s); b {
	case BackendAuto, BackendAtlas, BackendBuilder, BackendImplicit:
		return b, nil
	default:
		return BackendAuto, &UnknownBackendError{Name: s}
	}
}

// UnknownBackendError reports a backend name outside the known set.
type UnknownBackendError struct {
	Name string
}

func (e *UnknownBackendError) Error() string {
	return fmt.Sprintf("sweep: unknown backend %q (valid: %q, %q, %q, or empty for auto)",
		e.Name, BackendAtlas, BackendBuilder, BackendImplicit)
}

// ImplicitUnsupportedError reports a graph the implicit backend cannot
// serve: its type does not implement graph.Implicit (or is not comparable,
// which the per-worker source cache requires). Qualifying lists the
// families that do qualify, for the CLI's remediation message.
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

// resolveBackend validates Spec.Backend against the built graphs and
// returns the effective (non-auto) backend.
func resolveBackend(spec *Spec, graphs []graph.Graph) (Backend, error) {
	b, err := ParseBackend(string(spec.Backend))
	if err != nil {
		return BackendAuto, err
	}
	if b == BackendAuto {
		return BackendAtlas, nil
	}
	if b == BackendImplicit {
		for _, g := range graphs {
			if _, ok := g.(graph.Implicit); !ok || !reflect.TypeOf(g).Comparable() {
				return BackendAuto, &ImplicitUnsupportedError{
					Graph:      fmt.Sprintf("%T", g),
					N:          g.N(),
					Qualifying: graph.ImplicitFamilies(),
				}
			}
		}
	}
	return b, nil
}
