package main

import (
	"math"
	"sort"
	"testing"
)

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4, 4, 5, 9, 11, 12}, 4, 5, 11},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{42}, 42, 42, 42},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
		if got := median(tc.xs); got != tc.m {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.m)
		}
	}
	if q1, m, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(m) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v %v %v, want NaNs", q1, m, q3)
	}
}

func TestSpreadIsInterquartileShareOfMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{20000, 99, 19800, true}, // 200 beyond
		{20000, 99.9, 19980, true},
		{20000, 99.99, 19998, false}, // 2 beyond
		{1000, 99, 990, true},        // exactly 10 beyond
		{999, 99, 990, false},        // 9 beyond
		{100, 50, 50, true},
		{19, 50, 10, false}, // 9 beyond
	} {
		v, ok := percentile(ramp(tc.n), tc.p)
		if v != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(n=%d, p=%v) = %v %v, want %v %v", tc.n, tc.p, v, ok, tc.want, tc.wantOK)
		}
		if beyond := samplesBeyond(tc.n, tc.p); (beyond >= minBeyond) != tc.wantOK {
			t.Errorf("samplesBeyond(%d, %v) = %d, inconsistent with supported=%v", tc.n, tc.p, beyond, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestSummarizeLatencySortsAndGates(t *testing.T) {
	us := make([]float64, 2000)
	for i := range us {
		us[i] = float64(len(us) - i)
	}
	l := summarizeLatency(us)
	if !sort.Float64sAreSorted(us) || l.N != 2000 || l.P50 != 1000 || l.P99 != 1980 || !l.P99OK {
		t.Errorf("summarizeLatency = %+v", l)
	}
	if l := summarizeLatency(us[:500]); l.P99OK {
		t.Errorf("p99 of 500 samples reported as supported: %+v", l)
	}
}
