package main

import (
	"math"
	"sort"
	"time"
)

// maxTailQuantile is the tail the benchmark reports when the sample
// supports it; smaller samples report a lower percentile (see tailQ).
const maxTailQuantile = 0.99

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// dist summarises one sample: its size, median and tail, where Tail is
// the value at quantile TailQ.
type dist struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
}

// tailQ is the percentile rule: the highest quantile, capped at p99,
// that leaves at least minBeyond samples above the reported rank. With
// fewer than minBeyond+1 samples no percentile qualifies and the rule
// reports the maximum (quantile 1), so the tail is never silently a
// lower percentile than it claims.
func tailQ(n int) float64 {
	if n <= minBeyond {
		return 1
	}
	return math.Min(maxTailQuantile, float64(n-minBeyond)/float64(n))
}

// quantile returns the nearest-rank quantile q of sorted xs: the
// smallest value with at least q of the sample at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

// summarize sorts a copy of xs and applies the percentile rule.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := tailQ(len(s))
	return dist{N: len(s), P50: quantile(s, 0.5), Tail: quantile(s, q), TailQ: q}
}

// durations converts durations to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, the definition the benchmark's spread
// acceptance uses: positions (n+1)*i/4, linearly interpolated.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	// The same integer arithmetic as CPython's _quantiles exclusive
	// branch, including its extrapolation when j is clamped.
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
