package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"essio/internal/experiment"
)

type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMetricNamesMatchBenchmarkJSON runs a 2-node SmallConfig workload
// through the timed and the traced workload process and the aggregation,
// and checks that essbench emits exactly the metrics BENCHMARK.json lists,
// in its units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range def.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := strings.Join(listed, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, essbench runs %s", got, want)
	}

	w := simWorkload("test-small-2n", experiment.SmallConfig(experiment.PPM, 2))
	dir := t.TempDir()
	probe := []float64{probeNominal}
	timed := aggregate(w.name, 1, nil, proc{rep: workloadProcess(w, 1, dir, 0, false), rss: 1, probe: probe}, false)
	traced := aggregate(w.name, 1, nil, proc{rep: workloadProcess(w, 1, dir, 0, true), rss: 1, probe: probe}, true)
	for _, r := range []*workloadResult{timed, traced} {
		if !r.Correct {
			t.Fatalf("test workload failed: %v", r.Errors)
		}
	}
	if timed.Setups != timedSetups || timed.WarmupUnits != timedSetups {
		t.Errorf("timed process: %d set-ups, %d warm-up units; want %d of each", timed.Setups, timed.WarmupUnits, timedSetups)
	}
	if traced.ProfiledUnits == 0 || traced.TimedUnits == 0 {
		t.Errorf("traced process: %d profiled and %d unprofiled units; want both", traced.ProfiledUnits, traced.TimedUnits)
	}
	checkNames(t, "end_to_end", def.EndToEnd, timed.EndToEnd)
	checkNames(t, "per_layer", def.PerLayer, traced.PerLayer)

	sum := 0.0
	for _, l := range cpuLayers {
		sum += traced.PerLayer["cpu."+l].Median
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("cpu.* shares sum to %v%%, want 100%%", sum)
	}
}

func checkNames(t *testing.T, kind string, defs []metricDef, got metricSet) {
	t.Helper()
	want := map[string]string{}
	for _, d := range defs {
		want[d.Name] = d.Unit
	}
	for n, s := range got {
		u, ok := want[n]
		switch {
		case !ok:
			t.Errorf("%s: essbench emits %s, which BENCHMARK.json does not list", kind, n)
		case u != s.Unit:
			t.Errorf("%s: %s is in %s, BENCHMARK.json says %s", kind, n, s.Unit, u)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, which essbench does not emit", kind, n)
		}
	}
}
