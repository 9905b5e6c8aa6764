package coloring

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/problems"
)

// TestCommitWindowsNeverShrink pins the premise of the kernel's closed-form
// radius: a later phase's commitment window contains every earlier one.
func TestCommitWindowsNeverShrink(t *testing.T) {
	for p := 1; p < len(guessBits); p++ {
		if commitWindow(p) < commitWindow(p-1) {
			t.Errorf("commitWindow(%d) = %d < commitWindow(%d) = %d", p, commitWindow(p), p-1, commitWindow(p-1))
		}
	}
	if last := commitWindow(len(guessBits) - 1); last > maxCVIterations+2 {
		t.Errorf("last commitWindow %d exceeds the %d uniformReach assumes", last, maxCVIterations+2)
	}
}

// TestUniformHugeIdentifier: the last guess covers every non-negative int,
// so an identifier >= 2^62 still commits (in the last phase) on both paths.
func TestUniformHugeIdentifier(t *testing.T) {
	const n = 12
	for _, huge := range []int{1<<62 - 1, 1 << 62, math.MaxInt} {
		a := ids.Identity(n)
		a[5] = huge
		for _, res := range uniformRuns(t, graph.NewBallAtlas(graph.MustCycle(n), 0), a) {
			if err := (problems.Coloring{K: 3}).Verify(graph.MustCycle(n), a, res.Outputs); err != nil {
				t.Errorf("a[5]=%d: %v", huge, err)
			}
			for v, r := range res.Radii {
				if r != n/2 {
					t.Errorf("a[5]=%d: vertex %d decided at radius %d, want %d", huge, v, r, n/2)
				}
			}
		}
	}
}

// TestUniformNegativeIdentifierUndecided: no guess admits a negative
// identifier, so when one slips past validation the vertices whose
// evaluation reaches it never decide, and every path fails at the same
// vertex with the same error. Positions 26-38 see the -1 at 32 in their
// last window and never commit; the lone phase-0 position 20 (identifiers
// below 16 at 16-24) has 26 in its cone; vertex 14, a phase-1 committer,
// has 20 in its cone and is the first vertex that cannot decide, through
// that earlier-phase entry alone.
func TestUniformNegativeIdentifierUndecided(t *testing.T) {
	const n = 64
	a := make(ids.Assignment, n)
	for v := range a {
		a[v] = 100 + v
	}
	for i := 0; i < 9; i++ {
		a[16+i] = i
	}
	a[32] = -1
	_, errs := uniformRunsErr(graph.NewBallAtlas(graph.MustCycle(n), 0), a, local.WithValidatedIDs())
	want := "local: coloring/uniform undecided at vertex 14 after radius 64"
	for i, err := range errs {
		if err == nil || err.Error() != want {
			t.Errorf("path %d: error %v, want %q", i, err, want)
		}
	}
}

// uniformRuns runs Uniform on the atlas's ring under a through RunView,
// the view path of a Runner with the atlas attached and the kernel, fails
// the test if any of them errs, and returns the results in that order.
func uniformRuns(t *testing.T, atlas *graph.BallAtlas, a ids.Assignment, opts ...local.Option) []*local.Result {
	t.Helper()
	results, errs := uniformRunsErr(atlas, a, opts...)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("n=%d path %d: %v", len(a), i, err)
		}
	}
	return results
}

// uniformRunsErr is uniformRuns returning the errors.
func uniformRunsErr(atlas *graph.BallAtlas, a ids.Assignment, opts ...local.Option) ([]*local.Result, []error) {
	return ringRunsErr(atlas, a, Uniform{}, opts...)
}

// ringRunsErr runs alg on the atlas's ring under a through RunView, the
// view path of a Runner with the atlas attached and the kernel, and
// returns the results and errors in that order. Each Runner path gets a
// Runner of its own, so the results stay valid.
func ringRunsErr(atlas *graph.BallAtlas, a ids.Assignment, alg local.ViewAlgorithm, opts ...local.Option) ([]*local.Result, []error) {
	c := atlas.Graph()
	results := make([]*local.Result, 3)
	errs := make([]error, 3)
	results[0], errs[0] = local.RunView(c, a, alg, opts...)
	for i, kernels := range []bool{false, true} {
		r := local.NewRunner()
		r.SetSource(atlas)
		o := opts
		if !kernels {
			o = append(o[:len(o):len(o)], local.WithoutKernels())
		}
		results[i+1], errs[i+1] = r.Run(c, a, alg, o...)
	}
	return results, errs
}

// mixedLayouts returns identifier layouts for an n-ring that mix the
// uniform colouring's phases: below 2^4 commits in phase 0, below 2^16 in
// phase 1, anything larger in phase 2.
func mixedLayouts(n int, rng *rand.Rand) []layout {
	used := map[int]bool{}
	draw := func(lo, hi int) int {
		for {
			if id := lo + rng.Intn(hi-lo); !used[id] {
				used[id] = true
				return id
			}
		}
	}
	const (
		small = 1 << 4
		mid   = 1 << 16
		big   = 1 << 40
	)
	fill := func(class func(v int) int) ids.Assignment {
		clear(used)
		a := make(ids.Assignment, n)
		smalls := 0
		for v := range a {
			switch c := class(v); {
			case c == 0 && smalls < small:
				smalls++
				a[v] = draw(0, small)
			case c <= 1:
				a[v] = draw(small, mid)
			default:
				a[v] = draw(mid, big)
			}
		}
		return a
	}
	// Runs of random length and class: every phase boundary shows up.
	var runs []int
	for len(runs) < n {
		c, l := rng.Intn(3), 1+rng.Intn(10)
		for i := 0; i < l; i++ {
			runs = append(runs, c)
		}
	}
	huge := ids.Random(n, rng)
	huge[rng.Intn(n)] = 1<<62 + rng.Intn(1<<62)
	return []layout{
		{"dense", ids.Random(n, rng)},
		// A block of 12 identifiers below 2^4: its middle commits in phase 0.
		{"smallBlocks", fill(func(v int) int { return v / 12 % 2 })},
		// Runs of 16 below 2^16 between runs of 4 above: phases 1 and 2.
		{"phase2", fill(func(v int) int { return 1 + v%20/16 })},
		{"alternating", fill(func(v int) int { return 2 * (v % 2) })},
		{"runs", fill(func(v int) int { return runs[v] })},
		{"huge", huge},
	}
}

// layout is a named identifier assignment.
type layout struct {
	name string
	a    ids.Assignment
}

// TestUniformKernelMatchesViewPathMixedPhases is the differential test of
// the kernel's closed form: on rings of every size from 3 to 80 and layouts
// that mix all three phases, the kernel, the WithoutKernels view path and
// RunView agree on every output and radius, and a safety cap one below the
// largest radius fails all three with the identical Undecided error.
func TestUniformKernelMatchesViewPathMixedPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	phasesSeen := map[int]bool{}
	for n := 3; n <= 80; n++ {
		c := graph.MustCycle(n)
		atlas := graph.NewBallAtlas(c, 0) // shared: balls do not depend on identifiers
		for _, l := range mixedLayouts(n, rng) {
			name, a := l.name, l.a
			if err := a.Validate(); err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			for u := range a {
				p, _ := uniformEval{seg: segment{ids: a, closed: true}}.phaseOf(u)
				phasesSeen[p] = true
			}
			results := uniformRuns(t, atlas, a)
			for i, res := range results[1:] {
				if !reflect.DeepEqual(res, results[0]) {
					t.Fatalf("n=%d %s: path %d differs from the builder\nbuilder: %v %v\ngot:     %v %v",
						n, name, i+1, results[0].Outputs, results[0].Radii, res.Outputs, res.Radii)
				}
			}
			if err := (problems.Coloring{K: 3}).Verify(c, a, results[0].Outputs); err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if max := results[0].MaxRadius(); max > uniformReach {
				t.Fatalf("n=%d %s: radius %d beyond uniformReach %d", n, name, max, uniformReach)
			}
			capped := results[0].MaxRadius() - 1
			if capped < 1 {
				continue // WithMaxRadius ignores caps below 1
			}
			_, errs := uniformRunsErr(atlas, a, local.WithMaxRadius(capped))
			for i, err := range errs {
				if err == nil || err.Error() != errs[0].Error() {
					t.Fatalf("n=%d %s cap %d: path %d error %v, builder %v", n, name, capped, i, err, errs[0])
				}
			}
		}
	}
	for p := range guessBits {
		if !phasesSeen[p] {
			t.Errorf("no position committed in phase %d", p)
		}
	}
}

// TestColeVishkinKernelMatchesViewPath is the differential test of the
// Cole–Vishkin kernel: on rings of every size from 3 to 80 (closed views
// below n = 2(k+3), open ones above), identifier layouts of every scale and
// three bit budgets, the kernel, the WithoutKernels view path and RunView
// agree on every output and on the radius min(k+3, ⌊n/2⌋), and a safety
// cap of 0 (ignored) or one below that radius ends all three identically.
func TestColeVishkinKernelMatchesViewPath(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	closedSeen, openSeen := false, false
	for n := 3; n <= 80; n++ {
		atlas := graph.NewBallAtlas(graph.MustCycle(n), 0)
		for _, l := range mixedLayouts(n, rng) {
			base := ForMaxID(l.a.MaxID())
			for _, alg := range []ColeVishkin{base, {IDBits: base.IDBits + 5}, {IDBits: base.IDBits + 40}} {
				results, errs := ringRunsErr(atlas, l.a, alg)
				for i, err := range errs {
					if err != nil {
						t.Fatalf("n=%d %s b=%d path %d: %v", n, l.name, alg.IDBits, i, err)
					}
				}
				for i, res := range results[1:] {
					if !reflect.DeepEqual(res, results[0]) {
						t.Fatalf("n=%d %s b=%d: path %d differs from RunView\nwant: %v %v\ngot:  %v %v",
							n, l.name, alg.IDBits, i+1, results[0].Outputs, results[0].Radii, res.Outputs, res.Radii)
					}
				}
				k := iterationsToSix(alg.IDBits)
				rstar := min(k+len(classicClasses), n/2)
				closedSeen = closedSeen || rstar == n/2
				openSeen = openSeen || rstar < n/2
				if got := results[0].MaxRadius(); got != rstar {
					t.Fatalf("n=%d %s b=%d: max radius %d, want %d", n, l.name, alg.IDBits, got, rstar)
				}
				for _, capped := range []int{0, rstar - 1} {
					_, errs := ringRunsErr(atlas, l.a, alg, local.WithMaxRadius(capped))
					if capped > 0 && errs[0] == nil {
						t.Fatalf("n=%d %s b=%d cap %d: RunView decided", n, l.name, alg.IDBits, capped)
					}
					for i, err := range errs {
						if fmt.Sprint(err) != fmt.Sprint(errs[0]) {
							t.Fatalf("n=%d %s b=%d cap %d: path %d error %v, RunView %v", n, l.name, alg.IDBits, capped, i, err, errs[0])
						}
					}
				}
			}
		}
	}
	if !closedSeen || !openSeen {
		t.Errorf("closed rings seen: %v, open rings seen: %v; want both", closedSeen, openSeen)
	}
}

// TestRingColouringAllocations guards the allocation-free decide layer: on
// a warmed Runner with an atlas, the Uniform and ColeVishkin kernels and
// view paths cost at most 2 allocations per Run, the same at every ring
// size. The engine's own view path costs 1 (largestid.Pruning).
func TestRingColouringAllocations(t *testing.T) {
	if raceEnabled {
		// fmt's printer pool, behind ColeVishkin.Name, then allocates at random.
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	counts := map[string][]float64{}
	for _, n := range []int{1024, 4096} {
		var g graph.Graph = graph.MustCycle(n)
		a := ids.Random(n, rand.New(rand.NewSource(62)))
		for _, tc := range []struct {
			name string
			alg  local.ViewAlgorithm
			opts []local.Option
		}{
			{"engine view path", largestid.Pruning{}, []local.Option{local.WithoutKernels()}},
			{"Uniform kernel", Uniform{}, nil},
			{"Uniform view path", Uniform{}, []local.Option{local.WithoutKernels()}},
			{"ColeVishkin kernel", ForMaxID(n - 1), nil},
			{"ColeVishkin view path", ForMaxID(n - 1), []local.Option{local.WithoutKernels()}},
		} {
			r := local.NewRunner()
			r.SetSource(graph.NewBallAtlas(g, 0))
			var err error
			for i := 0; i < 2; i++ {
				_, err = r.Run(g, a, tc.alg, tc.opts...)
			}
			allocs := testing.AllocsPerRun(3, func() { _, err = r.Run(g, a, tc.alg, tc.opts...) })
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			if allocs > 2 {
				t.Errorf("%s n=%d: %.0f allocations per Run, want <= 2", tc.name, n, allocs)
			}
			counts[tc.name] = append(counts[tc.name], allocs)
		}
	}
	for name, c := range counts {
		if c[0] != c[1] {
			t.Errorf("%s: %.0f allocations per Run at n=1024 but %.0f at n=4096", name, c[0], c[1])
		}
	}
	if c := counts["engine view path"]; c[0] != 1 {
		t.Errorf("engine view path: %.0f allocations per Run, want 1", c[0])
	}
}
