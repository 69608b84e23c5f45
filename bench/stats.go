package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median, the quartiles
// and the sample count behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes median and quartiles by the exclusive method
// (Python's statistics.quantiles(v, n=4)), so spreads computed from a
// result file agree with the ones the builder's contract asks for.
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	return summary{Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3), N: len(s)}
}

// quantile returns the k-th quartile cut of sorted s (len >= 2) at
// position k*(n+1)/4, interpolating linearly and clamping to the ends.
func quantile(s []float64, k int) float64 {
	n := len(s)
	pos := float64(k*(n+1)) / 4
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

func median(v []float64) float64 { return summarize(v).Median }

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// tailPermille are the candidates for the reported tail (p50, p90, p95,
// p99, p99.9), low to high, in thousandths so the count is exact.
var tailPermille = []int{500, 900, 950, 990, 999}

// highestPercentile returns the highest candidate percentile that
// still has at least ten of n samples beyond it, 0 when even the
// median has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 10
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}
