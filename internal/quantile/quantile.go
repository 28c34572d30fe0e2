// Package quantile computes nearest-rank percentiles over latency samples.
//
// The eval qps harness and the query frontend both report p50/p99 over
// small sample counts, where the naive index formulas (len/2, len*99/100)
// misreport: the median of two samples must be the smaller one, not the
// max. Nearest-rank is the standard small-N definition: the p-th
// percentile of N sorted samples is the value at 1-based rank
// ceil(p/100 * N), clamped into [1, N].
package quantile

import (
	"math"
	"sort"
	"time"
)

// Rank returns the 0-based index of the p-th percentile (nearest-rank
// method) in a sorted slice of n samples. It returns 0 for n <= 0 so
// callers can index a non-empty default safely; p is clamped into
// (0, 100].
func Rank(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// Duration returns the p-th percentile of durs by the nearest-rank
// method, or 0 when durs is empty. It sorts a private copy; the input is
// not modified.
func Duration(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[Rank(len(sorted), p)]
}
