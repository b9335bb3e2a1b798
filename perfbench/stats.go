package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and how many samples
// lie strictly beyond its rank. xs need not be sorted; it is not modified.
// An empty input gives NaN and 0.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s) - 1 - rank
}

// reportable returns the q-quantile of xs when at least minBeyond samples
// lie beyond it, and ok=false otherwise.
func reportable(xs []float64, q float64) (v float64, ok bool) {
	v, beyond := percentile(xs, q)
	return v, beyond >= minBeyond
}

// median of xs (NaN when empty), averaging the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
