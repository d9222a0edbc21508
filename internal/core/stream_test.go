package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"essio/internal/sim"
	"essio/internal/trace"
)

// TestProfilerMatchesCharacterize feeds the row oracle one record at a
// time and checks the result is identical to Characterize of the same
// trace, whose columnar pass must change nothing about the paper's
// characterization.
func TestProfilerMatchesCharacterize(t *testing.T) {
	f := func(seed int64, durSecs uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]trace.Record, rng.Intn(300))
		for i := range recs {
			recs[i] = trace.Record{
				Time:    sim.Time(rng.Intn(30)) * sim.Time(sim.Second),
				Sector:  uint32(rng.Intn(40)) * 25000,
				Count:   uint16(rng.Intn(64) + 1),
				Pending: uint16(rng.Intn(5)),
				Op:      trace.Op(rng.Intn(2)),
				Node:    uint8(rng.Intn(4)),
				Origin:  trace.Origin(rng.Intn(7)),
			}
		}
		duration := sim.Duration(durSecs) * sim.Second
		p := NewProfiler("quick", duration, 4, 1024000)
		for _, r := range recs {
			if err := p.Add(r); err != nil {
				return false
			}
		}
		return reflect.DeepEqual(p.Profile(), Characterize("quick", recs, duration, 4, 1024000))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestProfilerOnSyntheticTrace pins the columnar path to the row oracle
// on the package's structured synthetic workload.
func TestProfilerOnSyntheticTrace(t *testing.T) {
	recs := syntheticTrace()
	p := NewProfiler("synthetic", 60*sim.Second, 1, 1024000)
	for _, r := range recs {
		if err := p.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(p.Profile(), Characterize("synthetic", recs, 60*sim.Second, 1, 1024000)) {
		t.Fatal("columnar profile diverged from the row oracle")
	}
}
