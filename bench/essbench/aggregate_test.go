package main

import "testing"

func TestAggregateScalesTimesByProbe(t *testing.T) {
	d := digests{Trace: "t", Report: "r"}
	p := proc{
		rep: childReport{
			Setups: []float64{4},
			Units:  []unitSample{{Warmup: true, RunS: 3, Digests: d}, {RunS: 2, AllocMiB: 10, Digests: d}},
		},
		rss:   100,
		probe: []float64{probeNominal / 2, probeNominal / 2, 3 * probeNominal},
	}
	r := aggregate("w", 1, &d, p, false)
	if !r.Correct {
		t.Fatalf("not correct: %v", r.Errors)
	}
	if r.Scale != 2 {
		t.Errorf("scale %v, want 2 (the probe's median is half the nominal)", r.Scale)
	}
	for _, c := range []struct {
		set  metricSet
		name string
		want float64
	}{
		{r.EndToEnd, "run_s", 4}, {r.EndToEnd, "setup_s", 8}, {r.EndToEnd, "alloc_mb", 10}, {r.EndToEnd, "peak_rss_mb", 100},
		{r.Wall, "run_s", 2}, {r.Wall, "setup_s", 4},
	} {
		if got := c.set[c.name].Median; got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAggregateFailsOnDigestMismatch(t *testing.T) {
	golden := digests{Trace: "t", Report: "r"}
	p := proc{
		rep: childReport{
			Setups: []float64{1},
			Units: []unitSample{
				{Warmup: true, RunS: 1, Digests: golden},
				{RunS: 1, Digests: digests{Trace: "t", Report: "other"}},
				{RunS: 1, Digests: golden},
			},
		},
		rss:   1,
		probe: []float64{probeNominal},
	}
	r := aggregate("w", 1, &golden, p, false)
	if r.Correct || r.Failed != 1 || r.Attempted != 3 {
		t.Errorf("correct %v, %d/%d failed; want a failed run with 1/3 failed", r.Correct, r.Failed, r.Attempted)
	}

	// Without a golden digest, the first unit is the reference.
	r = aggregate("w", 5, nil, p, false)
	if r.Correct || r.Failed != 1 {
		t.Errorf("no golden: correct %v, %d failed; want the odd unit to fail", r.Correct, r.Failed)
	}
}
