// Package adversary implements the lower-bound machinery from the proof of
// Theorem 1: the construction of a permutation pi of the identifiers that
// keeps the AVERAGE radius of any 3-colouring algorithm at Ω(log* n).
//
// The construction (§3 of the paper): as long as more than n/2 identifiers
// remain, find an arrangement of the remaining identifiers on a cycle that
// forces some vertex to radius at least R = ½·log*(n/2) (Linial's bound
// guarantees one exists), carve out the R-ball around that vertex, and
// concatenate the carved slices; the leftovers fill the tail. Transplanting
// a slice preserves its centre's radius, because a deterministic view
// algorithm's decision depends only on the ball it sees; Lemma 3 then lifts
// the centre's radius to the slice average.
//
// The package also provides executable versions of the two regularity
// lemmas (Lemma 2 and Lemma 3) used to audit radius distributions.
package adversary

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/analytic"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/sweep"
)

// Builder constructs Theorem-1 adversarial permutations against a concrete
// view algorithm.
type Builder struct {
	// Alg is the 3-colouring (or other) view algorithm to stress.
	Alg local.ViewAlgorithm
	// TargetRadius is the per-slice radius goal R. Zero means the paper's
	// value max(1, ceil(log*(n/2)/2)).
	TargetRadius int
	// MaxTries bounds the arrangements sampled per slice (default 32).
	MaxTries int
	// Workers bounds the pool scoring a slice's candidate arrangements
	// (0 = GOMAXPROCS). All candidates are drawn from the rng up front and
	// the first reaching the target is selected regardless of which worker
	// scored it, so the built permutation depends only on the rng stream,
	// never on the worker count.
	Workers int
}

// Report describes how the permutation was assembled.
type Report struct {
	// TargetRadius is the per-slice radius goal R actually used.
	TargetRadius int
	// Slices is the number of carved R-balls.
	Slices int
	// SliceCenters are the positions (in the final permutation) of the
	// carved balls' centres: slice j is centred at (2R+1)j + R.
	SliceCenters []int
	// Tail is the number of leftover identifiers appended at the end.
	Tail int
}

// ErrNoHardInstance indicates the sampler could not force the target radius
// within MaxTries arrangements — for honest algorithms with Ω(log* n)
// radius this only happens if TargetRadius is set too high.
var ErrNoHardInstance = errors.New("adversary: no arrangement reached the target radius")

// DefaultTargetRadius is the paper's R = ½·log*(n/2), at least 1.
func DefaultTargetRadius(n int) int {
	r := analytic.LogStar(float64(n)/2) / 2
	if r < 1 {
		return 1
	}
	return r
}

// Build assembles the adversarial permutation for an n-cycle. The returned
// assignment is a permutation of {0..n-1}.
func (b Builder) Build(n int, rng *rand.Rand) (ids.Assignment, *Report, error) {
	if n < 3 {
		return nil, nil, fmt.Errorf("adversary: need n >= 3, got %d", n)
	}
	target := b.TargetRadius
	if target <= 0 {
		target = DefaultTargetRadius(n)
	}
	maxTries := b.MaxTries
	if maxTries <= 0 {
		maxTries = 32
	}

	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
	}
	var windows [][]int
	report := &Report{TargetRadius: target}
	slice := 2*target + 1
	for len(pool) > n/2 && len(pool) >= slice && len(pool) >= 3 {
		window, rest, err := b.carve(pool, target, maxTries, rng)
		if err != nil {
			return nil, nil, err
		}
		report.SliceCenters = append(report.SliceCenters, slice*report.Slices+target)
		report.Slices++
		windows = append(windows, window)
		pool = rest
	}
	if report.Slices == 0 {
		return nil, nil, fmt.Errorf("adversary: target radius %d admits no %d-vertex slice on an %d-cycle", target, slice, n)
	}
	report.Tail = len(pool)
	pi, err := ids.FromWindows(n, windows, pool)
	if err != nil {
		return nil, nil, fmt.Errorf("adversary: assemble pi: %w", err)
	}
	return pi, report, nil
}

// carve finds an arrangement of pool on a len(pool)-cycle forcing some
// vertex to the target radius and cuts out that vertex's ball.
//
// All maxTries candidate arrangements are drawn from the rng up front —
// the stream's consumption is then a pure function of (pool, maxTries) —
// and scored in parallel waves over sweep.Map; kernel-capable algorithms
// share one ball atlas of the slice's cycle instead of re-running BFS per
// try. The first candidate (in draw order) reaching the target wins, so
// the selection is byte-identical to a serial scan at any worker count.
func (b Builder) carve(pool []int, target, maxTries int, rng *rand.Rand) (window, rest []int, err error) {
	m := len(pool)
	c, err := graph.NewCycle(m)
	if err != nil {
		return nil, nil, err
	}
	arrangements := make([]ids.Assignment, maxTries)
	for t := range arrangements {
		arrangement := make(ids.Assignment, m)
		for i, j := range rng.Perm(m) {
			arrangement[i] = pool[j]
		}
		arrangements[t] = arrangement
	}
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// One atlas per slice: kernel-capable algorithms take the flat path
	// and share the cycle's BFS layers; the rest run on each runner's ball
	// builder. Runners are pooled because sweep.Map hands out indices, not
	// worker slots.
	atlas := graph.NewBallAtlas(c, 0)
	runners := sync.Pool{New: func() any {
		r := local.NewRunner()
		r.SetSource(atlas)
		return r
	}}
	// hits[t] is the first vertex candidate t forces to the target radius,
	// or -1. Waves keep the typical case cheap: the first wave usually
	// contains a hit, so later candidates are never executed at all.
	hits := make([]int, maxTries)
	for wave := 0; wave < maxTries; wave += workers {
		end := wave + workers
		if end > maxTries {
			end = maxTries
		}
		if err := sweep.Map(context.Background(), workers, end-wave, func(i int) error {
			t := wave + i
			r := runners.Get().(*local.Runner)
			defer runners.Put(r)
			res, err := r.Run(c, arrangements[t], b.Alg)
			if err != nil {
				return err
			}
			hits[t] = -1
			for u, rad := range res.Radii {
				if rad >= target {
					hits[t] = u
					break
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		for t := wave; t < end; t++ {
			v := hits[t]
			if v < 0 {
				continue
			}
			w, err := arrangements[t].Window(v, target)
			if err != nil {
				return nil, nil, err
			}
			used := make(map[int]bool, len(w))
			for _, id := range w {
				used[id] = true
			}
			rest = make([]int, 0, m-len(w))
			for _, id := range pool {
				if !used[id] {
					rest = append(rest, id)
				}
			}
			return w, rest, nil
		}
	}
	return nil, nil, fmt.Errorf("%w (target %d, m=%d)", ErrNoHardInstance, target, m)
}

// Lemma2Violations counts, over all arcs of at most maxGap interior
// vertices, how many interior vertices exceed the Lemma 2 regularity bound
// max{r(x), r(y)} + k, where x and y are the arc endpoints and k the number
// of interior vertices. For a minimal algorithm the count is provably zero
// (for 4-colouring); for honest implementations it is an audit statistic.
func Lemma2Violations(c graph.Cycle, radii []int, maxGap int) int {
	n := c.N()
	if len(radii) != n {
		return 0
	}
	violations := 0
	for x := 0; x < n; x++ {
		rMax := radii[x]
		for k := 1; k <= maxGap && k <= n-2; k++ {
			y := (x + k + 1) % n
			bound := radii[y]
			if rMax > bound {
				bound = rMax
			}
			bound += k
			for d := 1; d <= k; d++ {
				if radii[(x+d)%n] > bound {
					violations++
				}
			}
		}
	}
	return violations
}

// Lemma3Ratio returns, for each vertex v with radius r(v) >= 2, the ratio
// between the average radius of the vertices at distance at most r(v)/2
// from v and r(v) itself. Lemma 3 asserts the ratio is bounded below by a
// constant for minimal algorithms; the minimum observed ratio is the audit
// statistic experiments report.
func Lemma3Ratio(c graph.Cycle, radii []int) (minRatio float64, ok bool) {
	n := c.N()
	if len(radii) != n {
		return 0, false
	}
	minRatio = -1
	for v := 0; v < n; v++ {
		r := radii[v]
		if r < 2 {
			continue
		}
		half := r / 2
		sum, count := 0, 0
		for d := -half; d <= half; d++ {
			sum += radii[((v+d)%n+n)%n]
			count++
		}
		ratio := float64(sum) / float64(count) / float64(r)
		if minRatio < 0 || ratio < minRatio {
			minRatio = ratio
		}
	}
	if minRatio < 0 {
		return 0, false
	}
	return minRatio, true
}
