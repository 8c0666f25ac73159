package main

import (
	"math"
	"sort"
)

// summary is the five numbers every timing in the benchmark is reported
// with: the median, the quartiles and the sample count behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reduces samples to median and quartiles. Quartiles follow
// Python's statistics.quantiles(values, n=4) (the exclusive method), so the
// spreads printed here are the ones the acceptance procedure computes. One
// sample is its own median and quartiles; no samples summarize to zero.
func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	return summary{Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3), N: n}
}

// quantile returns the i-th quartile cut point (i in 1..3) of sorted, which
// holds at least two values.
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*4
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// worsening is how far b is on the wrong side of a, as a share of a:
// positive when b is worse, negative when it is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
