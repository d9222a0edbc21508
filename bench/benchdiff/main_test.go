package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}
	cases := []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"identical", base, base, true, "same"},
		{"small drift within bound", base, scale(base, 1.02), true, "same"},
		{"slower beyond bound", base, scale(base, 1.10), true, "worse"},
		{"throughput dropped beyond bound", base, scale(base, 0.90), false, "worse"},
		{"faster in every pair", base, scale(base, 0.90), true, "better"},
		{"throughput up in every pair", base, scale(base, 1.10), false, "better"},
		{"noise wider than bound", base, noisy, true, "unresolved"},
		{"noisy but every run better", noisy, scale(noisy, 0.4), true, "better"},
		{"noisy and slower", noisy, scale(noisy, 1.10), true, "unresolved"},
	}
	for _, c := range cases {
		got := compare(c.a, c.b, 0.05, c.lower)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %s (change %+.3f, wins %d/%d), want %s",
				c.name, got.verdict, got.change, got.wins, got.pairs, c.want)
		}
	}
}

func TestCompareCountsPairWins(t *testing.T) {
	c := compare([]float64{1, 2, 3}, []float64{0.5, 2, 4}, 0.05, true)
	if c.wins != 1 || c.pairs != 3 {
		t.Fatalf("wins %d/%d, want 1/3 (ties count for neither side)", c.wins, c.pairs)
	}
}
