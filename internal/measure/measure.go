// Package measure computes the complexity measures the paper compares —
// the classic worst-case radius max_v r(v) and the new average radius
// (Σ_v r(v))/n — together with the curve fits used to check growth rates
// (Θ(log n), Θ(n ln n), Θ(log* n)). Aggregation across identifier
// permutations is the sweep engine's (internal/sweep).
package measure

import (
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
