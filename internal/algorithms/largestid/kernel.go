package largestid

import (
	// The kernels walk graph.AtlasBall skeletons. The compiler inlines
	// their CompleteAt and SizeAt calls only when this package imports
	// graph itself: nothing in local's export data carries those bodies.
	_ "repro/internal/graph"
	"repro/internal/local"
	"repro/internal/problems"
)

// The flat kernels below are the Decide loops of this package collapsed
// onto the atlas skeleton: a radius step is an argmax scan over one layer
// window of the centre's flat Verts array plus an O(1) completeness bit,
// with no View construction and no interface dispatch in between. They are
// byte-identical to the view path (see the equivalence suites in
// internal/local and internal/sweep) and exist purely for sweep throughput.

var (
	_ local.Kernel = Pruning{}
	_ local.Kernel = FullView{}
)

// DecideAll implements local.Kernel: per centre, scan each freshly revealed
// layer for an identifier beating the centre's (No at that radius), or stop
// at the first provably complete radius (Yes). Works on any graph family —
// the skeleton is all it reads. The layer window [lo, hi) is carried
// incrementally — the last step's end is the next step's start, exactly
// FrontierStartAt/SizeAt unrolled — because this loop is the innermost of
// exhaustive enumeration, where two accessor calls per radius step are
// measurable.
func (Pruning) DecideAll(run *local.KernelRun) (bool, error) {
	atlas, assign := run.Atlas, run.Assign
	for v := range run.Radii {
		if err := run.Err(v); err != nil {
			return true, err
		}
		st := atlas.Ensure(v, 0)
		if st == nil {
			run.Radii[v] = local.KernelUnserved
			continue
		}
		center := assign[v]
		verts, layerEnd, maxR := st.Verts, st.LayerEnd, st.MaxRadius
		r, lo := 0, 0
		for {
			hi := lo // empty window past MaxRadius (complete balls only)
			if r <= maxR {
				hi = layerEnd[r]
			}
			larger := false
			for _, w := range verts[lo:hi] {
				if assign[w] > center {
					larger = true
					break
				}
			}
			if larger {
				run.Outs[v], run.Radii[v] = problems.No, r
				break
			}
			if st.CompleteAt(r) {
				run.Outs[v], run.Radii[v] = problems.Yes, r
				break
			}
			if r >= run.MaxRadius {
				return true, run.Undecided(Pruning{}.Name(), v)
			}
			r++
			lo = hi
			if !st.Complete && r > maxR {
				if st = atlas.Ensure(v, r); st == nil {
					run.Radii[v] = local.KernelUnserved
					break
				}
				verts, layerEnd, maxR = st.Verts, st.LayerEnd, st.MaxRadius
			}
		}
	}
	return true, nil
}

// DecideAll implements local.Kernel: per centre, advance to the first
// complete radius (an O(1) bit per step), then answer by one max scan over
// the whole ball prefix.
func (FullView) DecideAll(run *local.KernelRun) (bool, error) {
	atlas, assign := run.Atlas, run.Assign
	for v := range run.Radii {
		if err := run.Err(v); err != nil {
			return true, err
		}
		st := atlas.Ensure(v, 0)
		if st == nil {
			run.Radii[v] = local.KernelUnserved
			continue
		}
		r := 0
		for !st.CompleteAt(r) {
			if r >= run.MaxRadius {
				return true, run.Undecided(FullView{}.Name(), v)
			}
			r++
			if !st.Complete && r > st.MaxRadius {
				if st = atlas.Ensure(v, r); st == nil {
					break
				}
			}
		}
		if st == nil {
			run.Radii[v] = local.KernelUnserved
			continue
		}
		center := assign[v]
		out := problems.Yes
		for _, w := range st.Verts[:st.SizeAt(r)] {
			if assign[w] > center {
				out = problems.No
				break
			}
		}
		run.Outs[v], run.Radii[v] = out, r
	}
	return true, nil
}
