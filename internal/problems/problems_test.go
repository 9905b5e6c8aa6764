package problems

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ids"
)

func TestLargestIDVerify(t *testing.T) {
	c := graph.MustCycle(5)
	a, err := ids.MaxAt(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := []int{No, No, Yes, No, No}
	if err := (LargestID{}).Verify(c, a, good); err != nil {
		t.Errorf("correct outputs rejected: %v", err)
	}
	twoLeaders := []int{No, Yes, Yes, No, No}
	if err := (LargestID{}).Verify(c, a, twoLeaders); err == nil {
		t.Error("extra Yes accepted")
	}
	noLeader := []int{No, No, No, No, No}
	if err := (LargestID{}).Verify(c, a, noLeader); err == nil {
		t.Error("missing leader accepted")
	}
	short := []int{No, No, Yes}
	if err := (LargestID{}).Verify(c, a, short); err == nil {
		t.Error("short output vector accepted")
	}
}

func TestColoringVerify(t *testing.T) {
	c := graph.MustCycle(4)
	a := ids.Identity(4)
	proper := []int{0, 1, 0, 1}
	if err := (Coloring{K: 3}).Verify(c, a, proper); err != nil {
		t.Errorf("proper colouring rejected: %v", err)
	}
	mono := []int{0, 0, 1, 2}
	err := (Coloring{K: 3}).Verify(c, a, mono)
	if err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	if !strings.Contains(err.Error(), "monochromatic") {
		t.Errorf("unexpected error: %v", err)
	}
	outOfRange := []int{0, 1, 0, 3}
	if err := (Coloring{K: 3}).Verify(c, a, outOfRange); err == nil {
		t.Error("colour 3 accepted for K=3")
	}
	negative := []int{0, 1, 0, -1}
	if err := (Coloring{K: 3}).Verify(c, a, negative); err == nil {
		t.Error("negative colour accepted")
	}
}

// TestVerifyNamesFirstViolation pins which of several violations Verify
// reports: edges are visited as v < w in graph.Edges order, so on C6 the
// port-1 edge 0-5 comes before 1-2 and 4-5.
func TestVerifyNamesFirstViolation(t *testing.T) {
	c := graph.MustCycle(6)
	a := ids.Identity(6)
	err := (Coloring{K: 3}).Verify(c, a, []int{0, 1, 1, 2, 0, 0})
	if want := "problems: edge 0-5 monochromatic (colour 0)"; err == nil || err.Error() != want {
		t.Errorf("Coloring.Verify = %v, want %q", err, want)
	}
	err = (MIS{}).Verify(c, a, []int{Yes, Yes, No, Yes, No, Yes})
	if want := "problems: adjacent vertices 0 and 1 both in the set"; err == nil || err.Error() != want {
		t.Errorf("MIS.Verify = %v, want %q", err, want)
	}
	err = (MIS{}).Verify(c, a, []int{Yes, No, Yes, Yes, No, Yes})
	if want := "problems: adjacent vertices 0 and 5 both in the set"; err == nil || err.Error() != want {
		t.Errorf("MIS.Verify = %v, want %q", err, want)
	}
}

// TestVerifyAllocationFree keeps the per-trial verifiers off the heap: they
// walk adjacency rows instead of building an edge list.
func TestVerifyAllocationFree(t *testing.T) {
	const n = 4096
	var g graph.Graph = graph.MustCycle(n)
	a := ids.Identity(n)
	colours, members := make([]int, n), make([]int, n)
	for v := range colours {
		colours[v] = v % 2
		members[v] = (v + 1) % 2
	}
	for _, tc := range []struct {
		p       Problem
		outputs []int
	}{{Coloring{K: 3}, colours}, {MIS{}, members}} {
		var err error
		allocs := testing.AllocsPerRun(20, func() { err = tc.p.Verify(g, a, tc.outputs) })
		if err != nil {
			t.Fatalf("%s: %v", tc.p.Name(), err)
		}
		if allocs != 0 {
			t.Errorf("%s.Verify allocates %.0f times on a %d-ring, want 0", tc.p.Name(), allocs, n)
		}
	}
}

func TestColoringOddCycleNeedsThree(t *testing.T) {
	// Sanity: no proper 2-colouring of C5 exists; the verifier must reject
	// every attempt that uses only colours {0,1}.
	c := graph.MustCycle(5)
	a := ids.Identity(5)
	for mask := 0; mask < 1<<5; mask++ {
		outputs := make([]int, 5)
		for v := range outputs {
			outputs[v] = (mask >> v) & 1
		}
		if err := (Coloring{K: 2}).Verify(c, a, outputs); err == nil {
			t.Fatalf("2-colouring %v of C5 accepted", outputs)
		}
	}
}

func TestMISVerify(t *testing.T) {
	c := graph.MustCycle(6)
	a := ids.Identity(6)
	good := []int{Yes, No, Yes, No, Yes, No}
	if err := (MIS{}).Verify(c, a, good); err != nil {
		t.Errorf("valid MIS rejected: %v", err)
	}
	dependent := []int{Yes, Yes, No, Yes, No, No}
	if err := (MIS{}).Verify(c, a, dependent); err == nil {
		t.Error("adjacent members accepted")
	}
	notMaximal := []int{Yes, No, No, No, Yes, No}
	if err := (MIS{}).Verify(c, a, notMaximal); err == nil {
		t.Error("non-maximal set accepted")
	}
	junk := []int{Yes, No, 5, No, Yes, No}
	if err := (MIS{}).Verify(c, a, junk); err == nil {
		t.Error("non-binary output accepted")
	}
}

func TestMISOnStar(t *testing.T) {
	star, err := graph.NewStar(5)
	if err != nil {
		t.Fatal(err)
	}
	a := ids.Identity(5)
	centre := []int{Yes, No, No, No, No}
	if err := (MIS{}).Verify(star, a, centre); err != nil {
		t.Errorf("centre-only MIS rejected: %v", err)
	}
	leaves := []int{No, Yes, Yes, Yes, Yes}
	if err := (MIS{}).Verify(star, a, leaves); err != nil {
		t.Errorf("leaves MIS rejected: %v", err)
	}
}

func TestLeaderElectionVerify(t *testing.T) {
	c := graph.MustCycle(4)
	a := ids.Identity(4)
	if err := (LeaderElection{}).Verify(c, a, []int{No, No, Yes, No}); err != nil {
		t.Errorf("single leader rejected: %v", err)
	}
	if err := (LeaderElection{}).Verify(c, a, []int{No, No, No, No}); err == nil {
		t.Error("zero leaders accepted")
	}
	if err := (LeaderElection{}).Verify(c, a, []int{Yes, No, Yes, No}); err == nil {
		t.Error("two leaders accepted")
	}
	if err := (LeaderElection{}).Verify(c, a, []int{2, No, No, No}); err == nil {
		t.Error("non-binary output accepted")
	}
}

func TestNamesStable(t *testing.T) {
	if (LargestID{}).Name() != "largestID" {
		t.Error("LargestID name changed")
	}
	if (Coloring{K: 3}).Name() != "3-coloring" {
		t.Error("Coloring name changed")
	}
	if (MIS{}).Name() != "MIS" {
		t.Error("MIS name changed")
	}
	if (LeaderElection{}).Name() != "leaderElection" {
		t.Error("LeaderElection name changed")
	}
}

func TestVerifyLengthChecks(t *testing.T) {
	c := graph.MustCycle(3)
	a := ids.Identity(3)
	short := []int{0, 1}
	for _, p := range []Problem{LargestID{}, Coloring{K: 3}, MIS{}, LeaderElection{}} {
		if err := p.Verify(c, a, short); err == nil {
			t.Errorf("%s accepted a short output vector", p.Name())
		}
	}
}
