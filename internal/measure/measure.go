// Package measure computes the complexity measures the paper compares —
// the classic worst-case radius max_v r(v) and the new average radius
// (Σ_v r(v))/n — together with the aggregation across identifier
// permutations (worst case or expectation) and the curve fits used to check
// growth rates (Θ(log n), Θ(n ln n), Θ(log* n)).
package measure

import (
	"fmt"
	"math"
	"sort"
)

// Summary condenses one radius vector into the statistics the experiments
// report. The JSON tags define the stable serialized shape the sweep
// engine's versioned codec embeds in lease completion records; renaming
// one is a format change there.
type Summary struct {
	N   int     `json:"n"`
	Max int     `json:"max"`
	Sum int     `json:"sum"`
	Avg float64 `json:"avg"`
	// Median and P90 describe the distribution's shape: for largest-ID the
	// paper predicts a heavily skewed distribution (most vertices stop
	// early, few run long), for colouring a flat one.
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
}

// Summarize computes a Summary of one radius vector.
func Summarize(radii []int) Summary {
	s := Summary{N: len(radii)}
	if len(radii) == 0 {
		return s
	}
	for _, r := range radii {
		s.Sum += r
		if r > s.Max {
			s.Max = r
		}
	}
	s.Avg = float64(s.Sum) / float64(s.N)
	s.Median = Quantile(radii, 0.5)
	s.P90 = Quantile(radii, 0.9)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of the values using linear
// interpolation between order statistics. It returns NaN for empty input.
func Quantile(values []int, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	if q <= 0 {
		return float64(sorted[0])
	}
	if q >= 1 {
		return float64(sorted[len(sorted)-1])
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// Histogram counts radii into unit bins 0..max.
func Histogram(radii []int) []int {
	max := 0
	for _, r := range radii {
		if r > max {
			max = r
		}
	}
	h := make([]int, max+1)
	for _, r := range radii {
		if r < 0 {
			continue
		}
		h[r]++
	}
	return h
}

// Aggregate combines summaries across identifier permutations of the same
// instance size: the paper's measures take the worst case over assignments,
// the further-work section asks about the expectation.
type Aggregate struct {
	Runs int
	// WorstAvg is max over runs of the per-run average radius — the paper's
	// average-complexity measure estimated over the sampled permutations.
	WorstAvg float64
	// WorstMax is max over runs of the per-run maximum radius — the classic
	// measure over the sampled permutations.
	WorstMax int
	// MeanAvg is the empirical expectation of the average radius over the
	// sampled permutations (uniformly random identifiers).
	MeanAvg float64
	// MeanMax is the empirical expectation of the maximum radius.
	MeanMax float64
}

// NewAggregate folds per-run summaries into an Aggregate.
func NewAggregate(summaries []Summary) Aggregate {
	agg := Aggregate{Runs: len(summaries)}
	if len(summaries) == 0 {
		return agg
	}
	var sumAvg, sumMax float64
	for _, s := range summaries {
		if s.Avg > agg.WorstAvg {
			agg.WorstAvg = s.Avg
		}
		if s.Max > agg.WorstMax {
			agg.WorstMax = s.Max
		}
		sumAvg += s.Avg
		sumMax += float64(s.Max)
	}
	agg.MeanAvg = sumAvg / float64(len(summaries))
	agg.MeanMax = sumMax / float64(len(summaries))
	return agg
}

// String renders the aggregate compactly for experiment tables.
func (a Aggregate) String() string {
	return fmt.Sprintf("runs=%d worstAvg=%.3f worstMax=%d meanAvg=%.3f meanMax=%.1f",
		a.Runs, a.WorstAvg, a.WorstMax, a.MeanAvg, a.MeanMax)
}
