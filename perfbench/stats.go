package main

import (
	"math"
	"sort"
)

// median returns the middle of vals, averaging the two middle values of
// an even count. It returns 0 for no values.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile of vals by the nearest-rank
// method: the smallest value with at least p% of the samples at or below
// it. It returns 0 for no values.
func nearestRank(vals []float64, p float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rank(n, p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// minTail is how many samples must lie beyond a reported percentile for
// it to describe a tail rather than a single outlier.
const minTail = 10

// tailSupported reports whether n samples put at least minTail samples
// beyond the p-th percentile.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}
