package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail percentile must have above
// it: a p99 over 500 samples rests on five values and moves with each stall,
// so the benchmark only reports a percentile once enough samples lie beyond
// it.
const minBeyond = 20

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest value such that at least p% of the samples are <= it. xs is
// sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = max(rank, 1)
	return xs[rank-1]
}

// tailPercentile is percentile with the sample-size rule applied: it fails
// unless at least beyond samples lie strictly above the nearest-rank
// position, so every reported tail rests on that many observations.
func tailPercentile(xs []float64, p float64, beyond int) (float64, error) {
	v := percentile(xs, p)
	rank := max(int(math.Ceil(p/100*float64(len(xs)))), 1)
	if len(xs)-rank < beyond {
		return v, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", p, len(xs), len(xs)-rank, beyond)
	}
	return v, nil
}

// median returns the median of xs (mean of the middle two for even
// lengths), leaving xs unsorted.
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
