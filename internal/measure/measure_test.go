package measure

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]int{0, 1, 2, 3, 4})
	if s.N != 5 || s.Max != 4 || s.Sum != 10 {
		t.Errorf("N=%d Max=%d Sum=%d, want 5,4,10", s.N, s.Max, s.Sum)
	}
	if s.Avg != 2 {
		t.Errorf("Avg = %v, want 2", s.Avg)
	}
	if s.Median != 2 {
		t.Errorf("Median = %v, want 2", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Max != 0 || s.Sum != 0 || s.Avg != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSkewed(t *testing.T) {
	// One long runner among many early stoppers — the largest-ID shape.
	radii := make([]int, 100)
	radii[37] = 50
	s := Summarize(radii)
	if s.Max != 50 {
		t.Errorf("Max = %d", s.Max)
	}
	if s.Avg != 0.5 {
		t.Errorf("Avg = %v, want 0.5", s.Avg)
	}
	if s.Median != 0 {
		t.Errorf("Median = %v, want 0", s.Median)
	}
}

func TestQuantile(t *testing.T) {
	vals := []int{4, 1, 3, 2}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{-1, 1},
		{2, 4},
	}
	for _, tt := range tests {
		if got := Quantile(vals, tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	vals := []int{3, 1, 2}
	Quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Error("Quantile sorted its input in place")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]int{0, 0, 1, 3})
	want := []int{2, 1, 0, 1}
	if len(h) != len(want) {
		t.Fatalf("Histogram = %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("Histogram = %v, want %v", h, want)
		}
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 4 {
		t.Errorf("histogram mass = %d, want 4", total)
	}
}

func TestHistogramMassInvariant(t *testing.T) {
	prop := func(raw []uint8) bool {
		radii := make([]int, len(raw))
		for i, r := range raw {
			radii[i] = int(r) % 32
		}
		total := 0
		for _, c := range Histogram(radii) {
			total += c
		}
		return total == len(radii)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("histogram loses mass: %v", err)
	}
}
