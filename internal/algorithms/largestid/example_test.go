package largestid_test

import (
	"fmt"
	"log"

	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/problems"
)

// ExamplePruning measures the paper's two complexities of the pruning
// algorithm on one verified instance: the maximum-identifier vertex needs
// floor(n/2) rounds, the average over vertices stays small.
func ExamplePruning() {
	ring := graph.MustCycle(16)
	assignment, err := ids.MaxAt(16, 0) // maximum identifier at vertex 0
	if err != nil {
		log.Fatal(err)
	}
	res, err := local.RunView(ring, assignment, largestid.Pruning{})
	if err != nil {
		log.Fatal(err)
	}
	if err := (problems.LargestID{}).Verify(ring, assignment, res.Outputs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classic max_v r(v) = %d\n", res.MaxRadius())
	fmt.Printf("average measure    = %.3f\n", res.AvgRadius())
	// Output:
	// classic max_v r(v) = 8
	// average measure    = 1.438
}
