package local

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/ids"
)

// Kernel is the optional flat fast path of the view engine. A ViewAlgorithm
// may additionally implement it to compute every vertex's output and
// stopping radius in one pass — no View objects, no per-vertex relabel
// scratch, no interface call per radius increment. Decisions like
// largest-ID pruning reduce to argmax scans over the prefix windows of a
// ball source's skeletons; ring kernels read the assignment directly.
//
// A Runner with a ball source attached for the graph under execution
// detects the interface and dispatches to it; results must be
// byte-identical to the view path (the engine's equivalence suites enforce
// this for every kernel in the repository). Runs without a matching
// source, MessageAlgorithm runs, runs with a WithProgress observer, and
// runs under WithoutKernels never consult the interface.
type Kernel interface {
	// DecideAll fills run.Outs and run.Radii for every vertex, marking
	// vertices it cannot serve (the atlas hit its memory cap mid-growth)
	// with run.Radii[v] = KernelUnserved; the engine reruns those on the
	// ball-builder path. ok=false declines the whole graph (e.g. a
	// ring-only kernel handed a tree) and the engine falls back to the
	// view path; Outs/Radii may then be left in any state.
	DecideAll(run *KernelRun) (ok bool, err error)
}

// KernelUnserved in Radii[v] marks a vertex the kernel could not serve.
const KernelUnserved = -1

// KernelRun carries one flat pass's inputs and outputs. Outs and Radii
// alias the engine's result buffers; Assign and the source are shared and
// read-only.
type KernelRun struct {
	// Atlas is the ball source of the graph under execution — a shared
	// *graph.BallAtlas on the materialised path, a per-worker
	// *graph.ImplicitBalls on the implicit one. Kernels grow it with
	// Ensure radius by radius; a nil snapshot means the source cannot
	// serve the vertex (memory-capped atlas) and the kernel marks it
	// KernelUnserved. Ring kernels read only its Graph. Snapshots must be re-read after every Ensure and
	// never retained across centres: implicit sources reuse one scratch
	// snapshot per centre.
	Atlas graph.BallSource
	// Assign is the trial's identifier assignment, indexed by original
	// vertex name (the atlas skeleton's Verts entries).
	Assign ids.Assignment
	// Outs and Radii receive every vertex's output and stopping radius.
	Outs, Radii []int
	// MaxRadius is the engine safety cap; a vertex still undecided there
	// must fail with Undecided.
	MaxRadius int
	// Ctx cancels the pass; poll it with Err.
	Ctx context.Context
	// Scratch is kernel-owned spill storage the engine preserves across
	// the Runner's runs: a kernel that needs per-pass working memory (the
	// ring colouring's per-position arrays) takes it with IntScratch
	// instead of allocating once per trial.
	Scratch []int
}

// IntScratch returns the run's scratch resized to n ints (contents
// unspecified), growing the persisted storage at most once per Runner.
func (kr *KernelRun) IntScratch(n int) []int {
	if cap(kr.Scratch) < n {
		kr.Scratch = make([]int, n)
	}
	kr.Scratch = kr.Scratch[:n]
	return kr.Scratch
}

// Err polls the run's context every 256 vertices (keyed by v, mirroring the
// view path's cadence) and returns its error once cancelled.
func (kr *KernelRun) Err(v int) error {
	if kr.Ctx != nil && v&0xff == 0 {
		return kr.Ctx.Err()
	}
	return nil
}

// Undecided formats the engine's standard over-cap error, byte-identical to
// the view path's.
func (kr *KernelRun) Undecided(name string, v int) error {
	return fmt.Errorf("local: %s undecided at vertex %d after radius %d", name, v, kr.MaxRadius)
}
