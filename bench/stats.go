package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail read from fewer than ten slower samples is one outlier's
// value, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs. It refuses
// when fewer than minBeyond samples lie above that rank, so a workload
// that reports a tail is sized to support it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := max(int(math.Ceil(p/100*float64(n))), 1)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, max(beyond, 0), minBeyond)
	}
	s := sorted(xs)
	return s[rank-1], nil
}

// median is the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples. It summarizes per-pass values, of
// which a run has only a few.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf is the largest of xs, 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
