package local

import "context"

// Option configures an engine run.
type Option func(*config)

// Progress describes one decision attempt of the view engine, delivered to
// a WithProgress observer.
type Progress struct {
	// Vertex is the deciding vertex.
	Vertex int
	// Radius is the view radius of the attempt.
	Radius int
	// Decided reports whether the vertex committed at this radius.
	Decided bool
}

type config struct {
	maxRadius int
	observer  func(Progress)
	ctx       context.Context
	noKernels bool
	validated bool
}

func newConfig(n int, opts []Option) config {
	cfg := config{maxRadius: defaultMaxRadius(n)}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// newConfigInto is newConfig resolving into caller-owned storage: applying
// dynamic Option funcs to a stack-local config forces it to escape, so hot
// paths that run per trial (Runner.Run) reuse a struct they already own.
func newConfigInto(cfg *config, n int, opts []Option) {
	*cfg = config{maxRadius: defaultMaxRadius(n)}
	for _, o := range opts {
		o(cfg)
	}
}

// defaultMaxRadius is the engine safety cap: any correct unknown-n
// algorithm on a connected n-vertex graph decides by the time its ball
// covers the graph, i.e. by radius n.
func defaultMaxRadius(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// WithMaxRadius overrides the safety cap on radii (view engine) or rounds
// (message engine). Executions exceeding the cap fail with an error.
func WithMaxRadius(r int) Option {
	return func(c *config) {
		if r > 0 {
			c.maxRadius = r
		}
	}
}

// WithContext attaches a cancellation context to a view-engine run. The
// engine polls ctx between vertices (every 256 of them, to keep the check
// off the per-decision hot path) and aborts with ctx's error once it is
// cancelled. A nil or background context disables the checks.
func WithContext(ctx context.Context) Option {
	return func(c *config) {
		c.ctx = ctx
	}
}

// WithoutKernels pins a run to the per-vertex view path even when the
// algorithm implements Kernel and a ball source is attached. Results are
// byte-identical either way; the view path is the oracle every kernel is
// tested against, and the toggle exists for that and for A/B profiling
// (cmd/avgbench exposes it as -nokernels).
func WithoutKernels() Option {
	return func(c *config) {
		c.noKernels = true
	}
}

// WithValidatedIDs asserts that the assignment handed to Run is already
// known to be valid (pairwise-distinct, non-negative), skipping the O(n)
// Validate on the engine's hot path. Use only for assignments produced by
// trusted constructors — the sweep engine's internally drawn permutations
// are valid by construction.
func WithValidatedIDs() Option {
	return func(c *config) {
		c.validated = true
	}
}

// WithProgress registers an observer invoked by the view engine after
// every decision attempt — the tracing hook for debugging algorithms and
// for radius-profile instrumentation. The callback runs synchronously on
// the caller's goroutine; keep it cheap.
func WithProgress(fn func(Progress)) Option {
	return func(c *config) {
		c.observer = fn
	}
}
