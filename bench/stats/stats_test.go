package stats

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.quantiles(data, n=4) and
// statistics.median on the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data           []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{1.5, 2.5, 2.0, 9.0, 3.0, 4.0, 1.0}, 1.5, 2.5, 4},
		{[]float64{7, 7, 7}, 7, 7, 7},
		{[]float64{5}, 5, 5, 5},
	}
	for _, c := range cases {
		s := Summarize("s", c.data)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v",
				c.data, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
	}
}

func TestSummarizeKeepsSampleOrder(t *testing.T) {
	in := []float64{3, 1, 2}
	s := Summarize("s", in)
	if s.Samples[0] != 3 || in[0] != 3 {
		t.Fatalf("samples reordered: %v (input %v)", s.Samples, in)
	}
}

func TestSpread(t *testing.T) {
	if got := Summarize("s", []float64{4, 1, 3, 2}).Spread(); got != 1 {
		t.Errorf("spread = %v, want (3.75-1.25)/2.5 = 1", got)
	}
	if got := Summarize("s", nil).Spread(); !math.IsInf(got, 1) {
		t.Errorf("spread of no samples = %v, want +Inf", got)
	}
}
