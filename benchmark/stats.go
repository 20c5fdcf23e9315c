package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method — the one Python's
// statistics.quantiles(xs, n=4) uses, so spreads computed here and by an
// outside harness agree digit for digit. A single value is its own
// three quartiles; an empty input gives NaNs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure a regression bound is compared against.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// samplesBeyond counts the samples strictly above the p-th percentile
// (nearest rank) of n samples.
func samplesBeyond(n int, p float64) int {
	return n - percentileRank(n, p)
}

// percentileRank is the 1-based nearest-rank index of percentile p in n
// sorted samples.
func percentileRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9 % of 20000 is 19980, not 19980.000000000004
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the p-th percentile of sorted (ascending) samples
// and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	if len(sorted) == 0 {
		return math.NaN(), false
	}
	return sorted[percentileRank(len(sorted), p)-1], samplesBeyond(len(sorted), p) >= minBeyond
}
