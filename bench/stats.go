package main

import (
	"sort"

	"repro/internal/quantile"
)

// summary is what the benchmark reports for every metric: the sample count
// with the five numbers a reader needs to judge a move against the spread.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize reduces samples to a summary. Quartiles use the exclusive
// method of Python's statistics.quantiles(n=4), so a spread computed here
// matches the one the driver computes over the same values.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Min: s[0], Q1: quantileExclusive(s, 0.25),
		Median: quantileExclusive(s, 0.5), Q3: quantileExclusive(s, 0.75), Max: s[len(s)-1]}
}

// quantileExclusive interpolates at position p·(n+1) (1-based) of a sorted
// slice, clamped to the ends.
func quantileExclusive(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p * float64(n+1)
	i := int(pos)
	switch {
	case i < 1:
		return sorted[0]
	case i >= n:
		return sorted[n-1]
	}
	return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound is judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[quantile.Rank(len(s), p)]
}

// tailLadder lists the percentiles a latency may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the highest rung of tailLadder that still has
// at least ten of n samples beyond it, or 0 when even the median has not:
// a percentile with fewer samples above it is one slow query, not a tail.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 1e-9: 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}
