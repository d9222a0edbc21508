// Package stats holds the order statistics the benchmark reports: the
// median and quartiles of a sample set. Quartiles follow Python's
// statistics.quantiles(data, n=4) (its default "exclusive" method), so a
// result file can be checked against an outside computation of the same
// samples digit for digit.
package stats

import (
	"math"
	"sort"
)

// Summary is one metric's samples with their order statistics.
type Summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// Summarize computes the median and quartiles of samples. The samples are
// kept in the order given.
func Summarize(unit string, samples []float64) Summary {
	q1, q3 := Quartiles(samples)
	return Summary{Unit: unit, Median: Median(samples), Q1: q1, Q3: q3, Samples: samples}
}

// Spread is the interquartile range as a share of the median: the
// run-to-run noise a bound has to sit above. It is +Inf for a zero median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Median is the middle sample, or the mean of the two middle samples; 0
// for no samples.
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartiles by the exclusive method:
// with m = n+1, quartile i sits at rank i*m/4, interpolated between
// neighbours and clamped to the inner ranks. One sample is its own
// quartiles; no samples give zeros.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
