package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected quartiles are statistics.quantiles(values, n=4) from Python
// 3, the arithmetic the acceptance procedure uses.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{1, 2, 4}, 1, 2, 4},
		{[]float64{5, 7}, 4.5, 6, 7.5}, // two samples extrapolate, as Python does
	} {
		s := summarize(tc.in)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.q2) || !near(s.Q3, tc.q3) || s.N != len(tc.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.in, s, tc.q1, tc.q2, tc.q3)
		}
	}
	if s := summarize([]float64{7}); s != (summary{Median: 7, Q1: 7, Q3: 7, N: 1}) {
		t.Errorf("one sample: %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("no samples: %+v", s)
	}
}

func TestSpreadAndWorsening(t *testing.T) {
	s := summary{Median: 10, Q1: 9, Q3: 12, N: 5}
	if got := s.spread(); !near(got, 0.3) {
		t.Errorf("spread = %v, want 0.3", got)
	}
	if got := (summary{}).spread(); got != 0 {
		t.Errorf("zero-median spread = %v, want 0", got)
	}
	for _, tc := range []struct {
		better string
		a, b   float64
		want   float64
	}{
		{lower, 10, 11, 0.1},    // slower is worse
		{lower, 10, 9, -0.1},    // faster is better
		{higher, 2, 1.5, 0.25},  // lower speed-up is worse
		{higher, 2, 2.5, -0.25}, // higher speed-up is better
		{lower, 0, 5, 0},        // no base, no ratio
	} {
		if got := worsening(tc.better, tc.a, tc.b); !near(got, tc.want) {
			t.Errorf("worsening(%s, %v, %v) = %v, want %v", tc.better, tc.a, tc.b, got, tc.want)
		}
	}
}
