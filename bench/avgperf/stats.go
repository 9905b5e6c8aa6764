package main

import (
	"math"
	"sort"
)

// summary describes the samples of one metric: median, quartiles, range
// and count. With five runs no percentile has ten samples beyond it, so no
// high percentile is reported.
type summary struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
}

func summarize(unit string, samples []float64) summary {
	s := summary{Unit: unit, Samples: samples, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = median(sorted)
	s.Q1, s.Q3 = quartiles(sorted)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// median of ascending values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf is median for unsorted values.
func medianOf(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return median(sorted)
}

// quartiles of ascending values, by the inclusive method of Python's
// statistics.quantiles(values, n=4, method="inclusive"): at five runs these
// are the second and fourth values, where the default exclusive method
// would reach out to nearly the extremes. A single value is its own
// quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	if ld < 2 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		j, delta := i*(ld-1)/4, i*(ld-1)%4
		if delta == 0 {
			return sorted[j]
		}
		return (sorted[j]*float64(4-delta) + sorted[j+1]*float64(delta)) / 4
	}
	return q(1), q(3)
}
