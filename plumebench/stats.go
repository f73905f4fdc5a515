package main

import (
	"math"
	"sort"
)

// median returns the middle sample (the mean of the two middle samples
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples rank above it. A percentile with
// fewer samples beyond it is withheld: it would be set by a handful of
// outliers.
func percentile(xs []float64, p float64, minBeyond int) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
