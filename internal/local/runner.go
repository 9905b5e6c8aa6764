package local

import (
	"fmt"
	"reflect"

	"repro/internal/graph"
	"repro/internal/ids"
)

// Runner executes view-engine runs with reusable scratch: one ball builder
// (reset per vertex instead of reallocated), the parallel identifier and
// degree slices, and the Result buffers. A warmed-up Runner performs whole
// executions without allocating, which is what makes large permutation
// sweeps allocation-bound on nothing but the algorithms themselves.
//
// A Runner is not safe for concurrent use; pools keep one per worker. The
// Result returned by Run aliases the Runner's buffers and is only valid
// until the next Run call — callers that need to retain it must copy the
// slices (RunView does exactly that ownership hand-off by dropping the
// Runner).
//
// Every view comes from the ball builder. With SetSource, a Runner also
// hands kernel-capable algorithms (see Kernel) a shared ball source for
// one flat DecideAll pass over its skeletons; WithoutKernels pins the view
// path. Results are byte-identical either way.
type Runner struct {
	bb *graph.BallBuilder
	// src is the attached ball source serving kernel runs: a shared
	// *graph.BallAtlas or a per-worker *graph.ImplicitBalls.
	src graph.BallSource
	// srcG is the source's graph when that graph is comparable, nil
	// otherwise — precomputed by SetSource so the per-run source check is a
	// single interface comparison (always safe: srcG's dynamic type is
	// comparable, and comparing against a value of any other type answers
	// false without inspecting the data).
	srcG    graph.Graph
	ids     []int
	degrees []int
	res     Result
	cfg     config // per-run options, resolved into Runner-owned storage
	// cfgOpts/cfgN key the resolved cfg: batched sweeps hand the same
	// option slice to every trial, so the per-run resolution collapses to
	// an identity check. Callers must not mutate an Option slice in place
	// between Run calls (append-and-pass, the idiomatic form, is fine —
	// appending allocates a new backing array).
	cfgOpts []Option
	cfgN    int
	krun    KernelRun // scratch pass context handed to Kernel.DecideAll
}

// NewRunner returns an empty Runner; buffers are grown on first use.
func NewRunner() *Runner { return &Runner{} }

// SetSource attaches a ball source for kernel runs (nil detaches). The
// source is consulted only when its graph is the one passed to Run; every
// per-vertex view, and every vertex a kernel leaves unserved, runs on the
// ball builder.
func (r *Runner) SetSource(src graph.BallSource) {
	r.src = src
	r.srcG = nil
	if src != nil {
		// Interface equality panics for non-comparable dynamic graph
		// types, so those conservatively never match (and fall back to
		// the builder path).
		if sg := src.Graph(); sg != nil && reflect.TypeOf(sg).Comparable() {
			r.srcG = sg
		}
	}
}

// Run executes alg at every vertex of g under the identifier assignment a,
// exactly like RunView, but recycles the Runner's scratch and Result
// buffers. The returned Result is overwritten by the next Run. Options are
// resolved once per distinct (slice, n) pair and cached by slice identity:
// do not mutate an Option slice in place between Run calls — build a new
// one (or append, which reallocates) instead.
func (r *Runner) Run(g graph.Graph, a ids.Assignment, alg ViewAlgorithm, opts ...Option) (*Result, error) {
	n := g.N()
	if len(a) != n {
		return nil, fmt.Errorf("local: assignment covers %d vertices, graph has %d", len(a), n)
	}
	// Batched sweeps pass the identical option slice every trial; resolving
	// it once per (slice, n) pair keeps the per-run cost to two compares.
	if r.cfgN != n || !sameOpts(r.cfgOpts, opts) {
		newConfigInto(&r.cfg, n, opts)
		r.cfgOpts, r.cfgN = opts, n
	}
	cfg := r.cfg
	if !cfg.validated {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	r.res.Algorithm = alg.Name()
	r.res.Outputs = resizeInts(r.res.Outputs, n)
	r.res.Radii = resizeInts(r.res.Radii, n)
	if g == r.srcG && !cfg.noKernels && cfg.observer == nil {
		// Kernel fast path: one flat pass over the source's skeletons.
		// Progress observers need the per-radius callbacks only the view
		// path makes, so their runs stay there.
		if k, ok := alg.(Kernel); ok {
			served, err := r.runKernel(g, a, alg, k, cfg)
			if err != nil {
				return nil, err
			}
			if served {
				return &r.res, nil
			}
		}
	}
	for v := 0; v < n; v++ {
		if cfg.ctx != nil && v&0xff == 0 {
			if err := cfg.ctx.Err(); err != nil {
				return nil, err
			}
		}
		out, rad, err := r.runVertex(g, a, alg, v, cfg)
		if err != nil {
			return nil, err
		}
		r.res.Outputs[v] = out
		r.res.Radii[v] = rad
	}
	return &r.res, nil
}

// runKernel executes alg's flat kernel over the attached source and reruns
// any vertices the kernel marked unserved (memory-capped atlas) on the
// ball-builder path. served=false means the kernel declined the graph entirely and
// the caller must run the view path.
func (r *Runner) runKernel(g graph.Graph, a ids.Assignment, alg ViewAlgorithm, k Kernel, cfg config) (served bool, err error) {
	// The pass context lives on the Runner: passing a stack-local struct
	// through the interface call would force one heap escape per trial.
	// Fields are reset individually — the kernel's scratch survives (grown
	// once per Runner, not once per trial), and no struct temp is copied.
	r.krun.Atlas = r.src
	r.krun.Assign = a
	r.krun.Outs = r.res.Outputs
	r.krun.Radii = r.res.Radii
	r.krun.MaxRadius = cfg.maxRadius
	r.krun.Ctx = cfg.ctx
	ok, err := k.DecideAll(&r.krun)
	if !ok || err != nil {
		return ok, err
	}
	for v, rad := range r.res.Radii {
		if cfg.ctx != nil && v&0xff == 0 {
			if err := cfg.ctx.Err(); err != nil {
				return true, err
			}
		}
		if rad != KernelUnserved {
			continue
		}
		out, rad, err := r.runVertex(g, a, alg, v, cfg)
		if err != nil {
			return true, err
		}
		r.res.Outputs[v] = out
		r.res.Radii[v] = rad
	}
	return true, nil
}

// runVertex grows vertex v's view until alg decides, reusing the Runner's
// ball builder and label slices.
func (r *Runner) runVertex(g graph.Graph, a ids.Assignment, alg ViewAlgorithm, v int, cfg config) (out, radius int, err error) {
	if r.bb == nil {
		r.bb = graph.NewBallBuilder(g, v)
	} else {
		r.bb.Reset(g, v)
	}
	view := View{ball: r.bb.Ball(), frontierStart: 0}
	view.ids, view.degrees = labelsFor(g, view.ball, a, r.ids[:0], r.degrees[:0])
	for {
		out, done := alg.Decide(view)
		if cfg.observer != nil {
			cfg.observer(Progress{Vertex: v, Radius: view.Radius(), Decided: done})
		}
		if done {
			// Hand the (possibly re-grown) label buffers back so their
			// capacity carries over to the next vertex.
			r.ids, r.degrees = view.ids, view.degrees
			return out, view.Radius(), nil
		}
		if view.Radius() >= cfg.maxRadius {
			r.ids, r.degrees = view.ids, view.degrees
			return 0, 0, fmt.Errorf("local: %s undecided at vertex %d after radius %d", alg.Name(), v, cfg.maxRadius)
		}
		start := r.bb.Grow()
		view.frontierStart = start
		view.ids, view.degrees = labelsFor(g, view.ball, a, view.ids[:start], view.degrees[:start])
	}
}

// sameOpts reports whether two option slices are the identical slice —
// same backing array, same length — which is how batched callers reuse one
// resolved config across trials.
func sameOpts(a, b []Option) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// resizeInts returns s with length exactly n, reusing capacity.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
