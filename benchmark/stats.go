package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// named: with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of an ascending-sorted
// sample, or an error when fewer than minBeyond samples lie beyond it.
func percentile(sorted []time.Duration, q float64) (time.Duration, error) {
	n := len(sorted)
	idx := max(int(math.Ceil(float64(n)*q-1e-9))-1, 0)
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// tail returns the highest of p99, p90 and p50 that the sample supports, with
// the percentile it chose.
func tail(sorted []time.Duration) (time.Duration, float64, error) {
	var err error
	for _, q := range []float64{0.99, 0.90, 0.50} {
		var v time.Duration
		if v, err = percentile(sorted, q); err == nil {
			return v, q, nil
		}
	}
	return 0, 0, err
}

func sortedCopy[T cmp.Ordered](xs []T) []T {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of a small sample (the three RunSim calls, repeated set-ups); the
// mean of the middle two when the count is even.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median, Q3 as Python's statistics.quantiles(xs, n=4)
// gives them (exclusive method), which is what the driver uses for spreads.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m, m
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
