package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

// quotientSpec builds an exhaustive spec over the given family with the
// quotient toggled by q. The pruning algorithm depends only on the
// port-forgetting labeled ball, so it is invariant under every declared
// automorphism group — the precondition for bit-identical quotient folds.
func quotientSpec(sizes []int, workers int, q bool,
	mk func(n int) (graph.Graph, error)) Spec {
	return Spec{
		Sizes:      sizes,
		Workers:    workers,
		Exhaustive: true,
		Quotient:   q,
		Graph:      func(n int, _ *rand.Rand) (graph.Graph, error) { return mk(n) },
		Alg:        func(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} },
	}
}

// declared is an adjacency graph declaring a caller-chosen automorphism
// group, so the quotient suite covers groups no shipped family declares:
// those are only the cycle's dihedral group and the complete graph's S_n.
type declared struct {
	*graph.Adj
	sym graph.Symmetry
}

func (d *declared) Automorphisms() graph.Symmetry { return d.sym }

// torus3x3 is the 3x3 torus (vertex r*3+c) with its translations, axis
// flips and transpose: a transitive group of order 72.
func torus3x3() (graph.Graph, error) {
	perm := func(f func(r, c int) (int, int)) []int {
		p := make([]int, 9)
		for v := range p {
			r, c := f(v/3, v%3)
			p[v] = r*3 + c
		}
		return p
	}
	down := perm(func(r, c int) (int, int) { return (r + 1) % 3, c })
	right := perm(func(r, c int) (int, int) { return r, (c + 1) % 3 })
	var edges [][2]int
	for v := 0; v < 9; v++ {
		edges = append(edges, [2]int{v, down[v]}, [2]int{v, right[v]})
	}
	g, err := graph.NewAdj(9, edges)
	if err != nil {
		return nil, err
	}
	return &declared{g, graph.Symmetry{Order: 72, Generators: [][]int{
		down,
		right,
		perm(func(r, c int) (int, int) { return (3 - r) % 3, c }),
		perm(func(r, c int) (int, int) { return r, (3 - c) % 3 }),
		perm(func(r, c int) (int, int) { return c, r }),
	}}}, nil
}

// binaryTree7 is the depth-2 complete binary tree (BFS numbering) with its
// three child-subtree swaps: an intransitive group of order 8.
func binaryTree7() (graph.Graph, error) {
	g, err := graph.NewBalancedTree(2, 2)
	if err != nil {
		return nil, err
	}
	return &declared{g, graph.Symmetry{Order: 8, Generators: [][]int{
		{0, 2, 1, 5, 6, 3, 4},
		{0, 1, 2, 4, 3, 5, 6},
		{0, 1, 2, 3, 4, 6, 5},
	}}}, nil
}

// quotientFamilies enumerates the declared groups the quotient fold is
// checked on, at sizes small enough that the full n! fold stays cheap.
func quotientFamilies() []struct {
	name  string
	sizes []int
	mk    func(n int) (graph.Graph, error)
} {
	return []struct {
		name  string
		sizes []int
		mk    func(n int) (graph.Graph, error)
	}{
		{"cycle", []int{5, 6, 7}, func(n int) (graph.Graph, error) { return graph.NewCycle(n) }},
		{"torus", []int{9}, func(int) (graph.Graph, error) { return torus3x3() }},
		{"complete", []int{5, 6}, func(n int) (graph.Graph, error) { return graph.NewCompleteGraph(n) }},
		{"tree", []int{7}, func(int) (graph.Graph, error) { return binaryTree7() }},
	}
}

// TestQuotientMatchesFullFold is the tentpole's core guarantee: folding
// only canonical representatives with orbit weight reproduces the full n!
// aggregates bit for bit — every SizeStats field, including the pooled
// histogram, the float summaries and the extremal trial indices (which a
// quotient run reports in full-rank coordinates) — at any worker count.
func TestQuotientMatchesFullFold(t *testing.T) {
	for _, fam := range quotientFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			full, err := Run(context.Background(), quotientSpec(fam.sizes, 1, false, fam.mk))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				quot, err := Run(context.Background(), quotientSpec(fam.sizes, workers, true, fam.mk))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(full, quot) {
					t.Errorf("workers=%d: quotient fold diverges from full fold\nfull:     %+v\nquotient: %+v",
						workers, full, quot)
				}
			}
		})
	}
}

// TestSoakQuotientFullFoldN10: the fold equivalence at the largest size a
// full n! baseline is still affordable — 3,628,800 permutations against
// 181,440 representatives. Every SizeStats field must match bit for bit,
// including the quantiles and the extremal best/worst trial indices the
// smaller cases also pin. Excluded from -short alongside the other soaks.
func TestSoakQuotientFullFoldN10(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10 full fold enumerates 10! permutations; skipped in -short")
	}
	mk := func(n int) (graph.Graph, error) { return graph.NewCycle(n) }
	full, err := Run(context.Background(), quotientSpec([]int{10}, 0, false, mk))
	if err != nil {
		t.Fatal(err)
	}
	quot, err := Run(context.Background(), quotientSpec([]int{10}, 0, true, mk))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, quot) {
		t.Errorf("n=10: quotient fold diverges from full fold\nfull:     %+v\nquotient: %+v", full, quot)
	}
}

// TestQuotientShardMerge: slicing the canonical-rank space into static
// lease shards and collecting the completions reproduces the full-space
// bytes, exactly like sharding the full rank space does.
func TestQuotientShardMerge(t *testing.T) {
	mk := func(n int) (graph.Graph, error) { return graph.NewCycle(n) }
	sizes := []int{6, 7}
	full, err := Run(context.Background(), quotientSpec(sizes, 2, false, mk))
	if err != nil {
		t.Fatal(err)
	}
	const m = 3
	spec := quotientSpec(sizes, 2, true, mk)
	st := NewMemStore()
	for i := 0; i < m; i++ {
		opts := LeaseOptions{Worker: fmt.Sprintf("s%d", i), GrainsPerSize: 5, Static: Shard{Index: i, Count: m}}
		if _, err := RunLeased(context.Background(), spec, st, opts); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged, err := CollectLeased(st, "leaserun", mustPlanOf(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, merged) {
		t.Errorf("merged quotient shards diverge from full fold\nfull:   %+v\nmerged: %+v", full, merged)
	}
}

// TestQuotientLeased: a quotient run through the lease protocol — two
// concurrent executors pulling grains from one store — collects to the
// same bytes as the full-space single-process run. Completion records
// carry the fold weight, so the collector's owed-trials accounting works
// in orbit-weighted units.
func TestQuotientLeased(t *testing.T) {
	spec := quotientSpec([]int{6}, 2, true, func(n int) (graph.Graph, error) { return graph.NewCycle(n) })
	want, err := Run(context.Background(), quotientSpec([]int{6}, 1, false, func(n int) (graph.Graph, error) { return graph.NewCycle(n) }))
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	_, got := runLeasedAll(t, spec, st, 2, func(i int) LeaseOptions {
		return LeaseOptions{Worker: []string{"a", "b"}[i], GrainsPerSize: 3}
	})
	if !reflect.DeepEqual(want, got) {
		t.Errorf("leased quotient run diverges from full fold\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestQuotientCoversEachOrbitOnce: the executed representatives are
// exactly the canonical assignments, each visited once, and the weighted
// representative count recovers n! — the n!/|G| work reduction is real,
// not a re-labeling of the same trials.
func TestQuotientCoversEachOrbitOnce(t *testing.T) {
	const n = 6
	c := graph.MustCycle(n)
	q, err := ids.NewQuotient(n, c.Automorphisms().Generators, c.Automorphisms().Order, false)
	if err != nil {
		t.Fatal(err)
	}
	visits := make(map[int]int)
	spec := quotientSpec([]int{n}, 1, true, func(n int) (graph.Graph, error) { return graph.NewCycle(n) })
	spec.Observe = func(_, trial int, _ graph.Graph, a ids.Assignment, _ *local.Result) {
		visits[trial]++
		if !q.IsCanonical(a) {
			t.Errorf("trial %d executed non-canonical assignment %v", trial, a)
		}
	}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if uint64(len(visits)) != q.Count() {
		t.Fatalf("executed %d representatives, quotient has %d", len(visits), q.Count())
	}
	for trial, v := range visits {
		if v != 1 {
			t.Errorf("representative trial %d visited %d times", trial, v)
		}
	}
	f, _ := ids.Factorial(n)
	if got := q.Count() * q.Order(); got != f {
		t.Errorf("weighted representative count %d != %d!=%d", got, n, f)
	}
}

// TestQuotientSpecValidation: Quotient is only meaningful on the
// exhaustive path, and the conflict surfaces as the typed
// *SpecConflictError the CLI diagnosis layer renders.
func TestQuotientSpecValidation(t *testing.T) {
	spec := quotientSpec([]int{6}, 1, true, func(n int) (graph.Graph, error) { return graph.NewCycle(n) })
	spec.Exhaustive = false
	spec.Trials = 4
	_, err := Run(context.Background(), spec)
	var ce *SpecConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("Quotient without Exhaustive: got %v, want *SpecConflictError", err)
	}
	if !reflect.DeepEqual(ce.Fields, []string{"Quotient", "Exhaustive"}) {
		t.Errorf("conflict fields = %v", ce.Fields)
	}
}

// TestQuotientUnsupportedFamily: a family that does not declare
// automorphisms (GNP) fails with the typed decline naming the families
// that do qualify — mirroring the implicit backend's unsupported error.
func TestQuotientUnsupportedFamily(t *testing.T) {
	spec := quotientSpec([]int{6}, 1, true, func(n int) (graph.Graph, error) {
		return graph.NewGNP(6, 0.5, rand.New(rand.NewSource(1)))
	})
	_, err := Run(context.Background(), spec)
	var qe *QuotientUnsupportedError
	if !errors.As(err, &qe) {
		t.Fatalf("quotient over GNP: got %v, want *QuotientUnsupportedError", err)
	}
	if len(qe.Qualifying) == 0 {
		t.Error("decline does not name the qualifying families")
	}
	if qe.N != 6 {
		t.Errorf("decline N = %d, want 6", qe.N)
	}
}

// TestQuotientCheckpointResume: a quotient run split through Spec.Done
// merges to the same bytes — Done ranges (what lease grains execute
// through) live in representative-rank space and compose with the
// weighted fold unchanged.
func TestQuotientCheckpointResume(t *testing.T) {
	mk := func(n int) (graph.Graph, error) { return graph.NewCycle(n) }
	want, err := Run(context.Background(), quotientSpec([]int{6, 7}, 1, true, mk))
	if err != nil {
		t.Fatal(err)
	}
	// First pass: only a leading slice of each size's representative space.
	first := quotientSpec([]int{6, 7}, 1, true, mk)
	plan := mustPlanOf(first)
	counts, err := plan.Counts()
	if err != nil {
		t.Fatal(err)
	}
	// Counts are already in representative-rank space under Quotient; Done
	// lists are carved out of the same space.
	done := make([][]TrialRange, len(counts))
	for i, c := range counts {
		done[i] = []TrialRange{{T0: 0, T1: c / 2}}
	}
	second := quotientSpec([]int{6, 7}, 1, true, mk)
	second.Done = done
	rest, err := Run(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	third := quotientSpec([]int{6, 7}, 1, true, mk)
	for i := range done {
		done[i] = []TrialRange{{T0: done[i][0].T1, T1: counts[i]}}
	}
	third.Done = done
	head, err := Run(context.Background(), third)
	if err != nil {
		t.Fatal(err)
	}
	merged := head
	for i := range merged.Sizes {
		merged.Sizes[i].Merge(&rest.Sizes[i])
	}
	if !reflect.DeepEqual(want, merged) {
		t.Errorf("resumed quotient run diverges\nwant:   %+v\nmerged: %+v", want, merged)
	}
}
