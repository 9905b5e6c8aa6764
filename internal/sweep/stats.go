package sweep

import (
	"fmt"
	"math"

	"repro/internal/measure"
)

// maxHistRadius bounds the radius the pooled histogram will materialise a
// bucket for: one int64 bucket per radius up to 2^31 is already a 16 GiB
// histogram, and every realisable radius is at most the graph's diameter —
// so crossing this bound means a corrupted radius, not a big sweep.
const maxHistRadius = math.MaxInt32

// AggregateOverflowError reports a trial whose fold would overflow the
// streaming aggregate: a histogram bucket index past maxHistRadius, or an
// int64 total that would wrap. Typed so sweep drivers can distinguish the
// aggregate ceiling from algorithm failures.
type AggregateOverflowError struct {
	// Radius is the offending bucket index, or -1 when the totals overflow.
	Radius int
	// Total and Add are the int64 accumulator and addend at the wrap point
	// (zero when Radius is the offender).
	Total, Add int64
}

func (e *AggregateOverflowError) Error() string {
	if e.Radius >= 0 {
		return fmt.Sprintf("radius %d exceeds the %d histogram bucket bound", e.Radius, maxHistRadius)
	}
	return fmt.Sprintf("folding %d into aggregate total %d overflows int64", e.Add, e.Total)
}

// checkFold validates one trial's fold into the aggregate before addTrial
// commits it: the histogram stays addressable and the integer totals stay
// exact. Radii are bounded by graph diameters in every sweep Run plans, so
// a failure here indicates corrupted inputs; the guard exists so the
// corruption surfaces as a typed error instead of silent wraparound.
func (s *SizeStats) checkFold(maxR int, sum measure.Summary) error {
	if maxR > maxHistRadius {
		return &AggregateOverflowError{Radius: maxR}
	}
	if int64(sum.Sum) > math.MaxInt64-s.TotalSum {
		return &AggregateOverflowError{Radius: -1, Total: s.TotalSum, Add: int64(sum.Sum)}
	}
	if int64(sum.Max) > math.MaxInt64-s.TotalMax {
		return &AggregateOverflowError{Radius: -1, Total: s.TotalMax, Add: int64(sum.Max)}
	}
	return nil
}

// checkFoldWeighted is checkFold for a weight-w fold (a quotient
// representative settling its whole orbit). The weighted addends can be
// enormous (weight is up to n!), so the guards divide instead of multiply
// — and the histogram buckets, safe from overflow at weight 1 by the
// totals' guards, need their own per-bucket checks here.
func (s *SizeStats) checkFoldWeighted(maxR int, sum measure.Summary, hist []int64, weight int) error {
	if weight == 1 {
		return s.checkFold(maxR, sum)
	}
	if maxR > maxHistRadius {
		return &AggregateOverflowError{Radius: maxR}
	}
	w := int64(weight)
	if sum.Sum > 0 && w > (math.MaxInt64-s.TotalSum)/int64(sum.Sum) {
		return &AggregateOverflowError{Radius: -1, Total: s.TotalSum, Add: int64(sum.Sum)}
	}
	if sum.Max > 0 && w > (math.MaxInt64-s.TotalMax)/int64(sum.Max) {
		return &AggregateOverflowError{Radius: -1, Total: s.TotalMax, Add: int64(sum.Max)}
	}
	if s.Trials > math.MaxInt-weight {
		return &AggregateOverflowError{Radius: -1, Total: int64(s.Trials), Add: w}
	}
	for r, c := range hist {
		if c == 0 {
			continue
		}
		var cur int64
		if r < len(s.Hist) {
			cur = s.Hist[r]
		}
		if w > (math.MaxInt64-cur)/c {
			return &AggregateOverflowError{Radius: r, Total: cur, Add: c}
		}
	}
	return nil
}

// SizeStats is the streaming aggregate of every trial executed at one sweep
// size. It is O(max radius) in memory — not O(trials) — because trials fold
// into integer totals, a pooled radius histogram, and the summaries of the
// two extremal trials. All folds are commutative and tie-broken by trial
// index, so merged shards produce bit-identical statistics at any worker
// count.
// The JSON tags define the stable serialized shape the versioned codec
// (codec.go) writes into lease completion records; renaming one is a
// format change and must bump the codec version.
type SizeStats struct {
	// N is the number of vertices at this sweep size.
	N int `json:"n"`
	// Trials counts completed trials (smaller than requested after a
	// cancellation).
	Trials int `json:"trials"`
	// Failures counts trials whose Verify hook rejected the outputs.
	Failures int `json:"failures,omitempty"`
	// TotalSum is Σ over trials of Σ_v r(v). Integer, hence
	// order-independent; MeanAvg derives from it exactly.
	TotalSum int64 `json:"totalSum"`
	// TotalMax is Σ over trials of max_v r(v).
	TotalMax int64 `json:"totalMax"`
	// WorstAvg summarises the trial maximising the per-trial radius sum —
	// the paper's worst-case average measure over the sampled permutations.
	WorstAvg measure.Summary `json:"worstAvg"`
	// WorstAvgTrial is the index of that trial (lowest index on ties).
	WorstAvgTrial int `json:"worstAvgTrial"`
	// WorstMax summarises the trial maximising the per-trial maximum radius
	// — the classic measure over the sampled permutations.
	WorstMax measure.Summary `json:"worstMax"`
	// WorstMaxTrial is the index of that trial (lowest index on ties).
	WorstMaxTrial int `json:"worstMaxTrial"`
	// BestAvg summarises the trial minimising the per-trial radius sum —
	// the most favourable permutation seen. Exhaustive sweeps turn it into
	// the exact best case over ALL assignments.
	BestAvg measure.Summary `json:"bestAvg"`
	// BestAvgTrial is the index of that trial (lowest index on ties).
	BestAvgTrial int `json:"bestAvgTrial"`
	// Hist pools the radius histogram over all vertices of all trials:
	// Hist[r] executions decided at radius exactly r.
	Hist []int64 `json:"hist"`
}

// MeanAvg is the empirical expectation of the average radius over trials.
func (s *SizeStats) MeanAvg() float64 {
	if s.Trials == 0 || s.N == 0 {
		return 0
	}
	return float64(s.TotalSum) / float64(int64(s.Trials)*int64(s.N))
}

// MeanMax is the empirical expectation of the maximum radius over trials.
func (s *SizeStats) MeanMax() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.TotalMax) / float64(s.Trials)
}

// Verified reports whether every completed trial passed verification.
func (s *SizeStats) Verified() bool { return s.Failures == 0 }

// Quantile returns the q-quantile of the pooled radius distribution, with
// the same order-statistic interpolation as measure.Quantile.
func (s *SizeStats) Quantile(q float64) float64 { return HistQuantile(s.Hist, q) }

// HistQuantile returns the q-quantile of the multiset encoded by hist
// (hist[r] = number of values equal to r), interpolating between order
// statistics exactly like measure.Quantile. It is shared by the sweep
// aggregates and the exact-enumeration statistics so the two layers report
// comparable shapes.
func HistQuantile(hist []int64, q float64) float64 {
	var count int64
	for _, c := range hist {
		count += c
	}
	return quantileHist(hist, count, q)
}

// addTrial folds one completed trial into the aggregate. hist is the
// trial's own radius histogram; sum its Summary.
func (s *SizeStats) addTrial(trial int, sum measure.Summary, hist []int64, verifyFailed bool) {
	s.addTrialWeighted(trial, sum, hist, verifyFailed, 1)
}

// addTrialWeighted folds one executed trial that stands for weight
// identical trials — a quotient's canonical representative settling its
// whole orbit. Counts, totals and histogram mass scale by weight; the
// extremal summaries do not (every orbit member realises the same
// summary, and trial is already the lowest full rank achieving it), so a
// weighted fold commutes with Merge exactly like weight unit folds.
func (s *SizeStats) addTrialWeighted(trial int, sum measure.Summary, hist []int64, verifyFailed bool, weight int) {
	wasEmpty := s.Trials == 0
	s.Trials += weight
	if verifyFailed {
		s.Failures += weight
	}
	w := int64(weight)
	s.TotalSum += w * int64(sum.Sum)
	s.TotalMax += w * int64(sum.Max)
	s.Hist = growHist(s.Hist, len(hist))
	for r, c := range hist {
		s.Hist[r] += w * c
	}
	if wasEmpty {
		s.WorstAvg, s.WorstAvgTrial = sum, trial
		s.WorstMax, s.WorstMaxTrial = sum, trial
		s.BestAvg, s.BestAvgTrial = sum, trial
		return
	}
	if worseSum(sum, trial, s.WorstAvg, s.WorstAvgTrial) {
		s.WorstAvg, s.WorstAvgTrial = sum, trial
	}
	if worseMax(sum, trial, s.WorstMax, s.WorstMaxTrial) {
		s.WorstMax, s.WorstMaxTrial = sum, trial
	}
	if betterSum(sum, trial, s.BestAvg, s.BestAvgTrial) {
		s.BestAvg, s.BestAvgTrial = sum, trial
	}
}

// Merge folds another partial aggregate for the same size into s. Commutes
// with addTrial in any interleaving: integer totals add, histograms add,
// and the extremal-trial selection depends only on (value, trial index) —
// so worker shards and lease completion records from any process all
// merge to the bytes a single uninterrupted run produces. o is not
// modified, and s shares no mutable state with it afterwards.
func (s *SizeStats) Merge(o *SizeStats) {
	if o.Trials == 0 {
		return
	}
	if s.Trials == 0 {
		n := s.N // worker shards don't know the size; keep the caller's
		*s = *o
		s.N = n
		// Deep-copy the histogram: o's shard may be reused by the caller.
		s.Hist = append([]int64(nil), o.Hist...)
		return
	}
	s.Trials += o.Trials
	s.Failures += o.Failures
	s.TotalSum += o.TotalSum
	s.TotalMax += o.TotalMax
	s.Hist = growHist(s.Hist, len(o.Hist))
	for r, c := range o.Hist {
		s.Hist[r] += c
	}
	if worseSum(o.WorstAvg, o.WorstAvgTrial, s.WorstAvg, s.WorstAvgTrial) {
		s.WorstAvg, s.WorstAvgTrial = o.WorstAvg, o.WorstAvgTrial
	}
	if worseMax(o.WorstMax, o.WorstMaxTrial, s.WorstMax, s.WorstMaxTrial) {
		s.WorstMax, s.WorstMaxTrial = o.WorstMax, o.WorstMaxTrial
	}
	if betterSum(o.BestAvg, o.BestAvgTrial, s.BestAvg, s.BestAvgTrial) {
		s.BestAvg, s.BestAvgTrial = o.BestAvg, o.BestAvgTrial
	}
}

// worseSum reports whether trial a (summary sa) beats trial b as the
// worst-by-radius-sum trial. Integer comparison with lowest-index
// tie-breaking keeps the selection independent of fold order.
func worseSum(sa measure.Summary, a int, sb measure.Summary, b int) bool {
	if sa.Sum != sb.Sum {
		return sa.Sum > sb.Sum
	}
	return a < b
}

// worseMax is worseSum for the worst-by-maximum-radius trial.
func worseMax(sa measure.Summary, a int, sb measure.Summary, b int) bool {
	if sa.Max != sb.Max {
		return sa.Max > sb.Max
	}
	return a < b
}

// betterSum is worseSum mirrored: the best-by-radius-sum trial, lowest
// index on ties.
func betterSum(sa measure.Summary, a int, sb measure.Summary, b int) bool {
	if sa.Sum != sb.Sum {
		return sa.Sum < sb.Sum
	}
	return a < b
}

// growHist returns h zero-extended to length need, doubling capacity on
// reallocation: radius histograms grow every time a trial sets a new
// record-high radius, and exact-fit appends would pay two allocations per
// record instead of an amortised O(1).
func growHist(h []int64, need int) []int64 {
	if need <= len(h) {
		return h
	}
	if need <= cap(h) {
		old := len(h)
		h = h[:need]
		for i := old; i < need; i++ {
			h[i] = 0
		}
		return h
	}
	c := 2 * cap(h)
	if c < need {
		c = need
	}
	nh := make([]int64, need, c)
	copy(nh, h)
	return nh
}

// summarizeHist computes the measure.Summary of one trial from its radius
// histogram in O(max radius), matching measure.Summarize (which sorts the
// raw radii) exactly.
func summarizeHist(hist []int64) measure.Summary {
	var s measure.Summary
	var count int64
	for r, c := range hist {
		if c == 0 {
			continue
		}
		count += c
		s.Sum += r * int(c)
		s.Max = r
	}
	s.N = int(count)
	if count == 0 {
		return s
	}
	s.Avg = float64(s.Sum) / float64(count)
	s.Median = interpHist(hist, count, 0.5)
	s.P90 = interpHist(hist, count, 0.9)
	return s
}

// quantileHist is measure.Quantile evaluated against a histogram instead of
// a raw value slice: linear interpolation between the floor and ceiling
// order statistics of position q*(count-1).
func quantileHist(hist []int64, count int64, q float64) float64 {
	if count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return float64(kthHist(hist, 0))
	}
	if q >= 1 {
		return float64(kthHist(hist, count-1))
	}
	return interpHist(hist, count, q)
}

// interpHist is quantileHist's interior case (0 < q < 1), fetching both
// bracketing order statistics in a single histogram scan — summarizeHist
// calls it twice per trial, so the scan count matters on the sweep hot
// path.
func interpHist(hist []int64, count int64, q float64) float64 {
	pos := q * float64(count-1)
	lo := int64(math.Floor(pos))
	hi := int64(math.Ceil(pos))
	frac := pos - float64(lo)
	vlo, vhi := kthHist2(hist, lo, hi)
	return float64(vlo)*(1-frac) + float64(vhi)*frac
}

// kthHist2 returns the klo-th and khi-th (klo <= khi) 0-based order
// statistics of the histogram's multiset in one pass.
func kthHist2(hist []int64, klo, khi int64) (int, int) {
	var c int64
	vlo, found := len(hist)-1, false
	for r, cnt := range hist {
		c += cnt
		if !found && c > klo {
			vlo, found = r, true
		}
		if c > khi {
			return vlo, r
		}
	}
	return vlo, len(hist) - 1
}

// kthHist returns the 0-based k-th order statistic of the histogram's
// multiset.
func kthHist(hist []int64, k int64) int {
	var c int64
	for r, cnt := range hist {
		c += cnt
		if c > k {
			return r
		}
	}
	return len(hist) - 1
}
