package model

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"essio/internal/sim"
	"essio/internal/trace"
)

// mkMergedStream builds one time-ordered multi-node stream with clustered
// keys, the shape a k-way node merge produces.
func mkMergedStream(rng *rand.Rand) []trace.Record {
	recs := make([]trace.Record, rng.Intn(400))
	for i := range recs {
		recs[i] = trace.Record{
			Time:    sim.Time(rng.Intn(25)) * sim.Time(sim.Second),
			Sector:  uint32(rng.Intn(10)) * 50000,
			Count:   uint16(rng.Intn(64) + 1),
			Pending: uint16(rng.Intn(4)),
			Op:      trace.Op(rng.Intn(2)),
			Node:    uint8(rng.Intn(4)),
			Origin:  trace.Origin(rng.Intn(7)),
		}
	}
	sort.SliceStable(recs, func(a, b int) bool { return trace.Less(recs[a], recs[b]) })
	return recs
}

// TestQuickFitterMergeMatchesSequential splits a merged stream at an
// arbitrary point — the chunked-file sharding shape — and requires the
// folded fitters to produce exactly the sequential model.
func TestQuickFitterMergeMatchesSequential(t *testing.T) {
	const diskSectors = 1024000
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkMergedStream(rng)
		want := FitSlice("t", recs, 0, diskSectors, 0)
		cuts := []int{0, len(recs)}
		if len(recs) > 1 {
			cuts = append(cuts, 1, rng.Intn(len(recs)), len(recs)-1)
		}
		for _, cut := range cuts {
			a := NewFitter("t", 0, diskSectors, 0)
			b := NewFitter("t", 0, diskSectors, 0)
			if len(recs) > 0 {
				a.SetAnchor(recs[0].Time)
				b.SetAnchor(recs[0].Time)
			}
			addRecs(a, recs[:cut])
			addRecs(b, recs[cut:])
			a.Merge(b)
			if got := a.Model(); !reflect.DeepEqual(got, want) {
				t.Logf("cut=%d seed=%d:\n got %+v\nwant %+v", cut, seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFitterMergeThreeWay folds three consecutive shards in order.
func TestFitterMergeThreeWay(t *testing.T) {
	const diskSectors = 1024000
	rng := rand.New(rand.NewSource(23))
	recs := mkMergedStream(rng)
	for len(recs) < 9 {
		recs = mkMergedStream(rng)
	}
	want := FitSlice("t", recs, 0, diskSectors, 0)
	third := len(recs) / 3
	parts := [][]trace.Record{recs[:third], recs[third : 2*third], recs[2*third:]}
	fitters := make([]*Fitter, len(parts))
	for i, part := range parts {
		fitters[i] = NewFitter("t", 0, diskSectors, 0)
		fitters[i].SetAnchor(recs[0].Time)
		addRecs(fitters[i], part)
	}
	for _, f := range fitters[1:] {
		fitters[0].Merge(f)
	}
	if got := fitters[0].Model(); !reflect.DeepEqual(got, want) {
		t.Fatalf("three-way merge diverged:\n got %+v\nwant %+v", got, want)
	}
}
