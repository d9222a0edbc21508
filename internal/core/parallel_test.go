package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"essio/internal/sim"
	"essio/internal/trace"
)

// mkPerNode builds per-node traces with clustered keys (tied timestamps,
// repeated sectors) so every order-sensitive metric is stressed. sorted
// controls whether each node's records arrive time-ordered like real
// driver captures or deliberately shuffled.
func mkPerNode(rng *rand.Rand, sorted bool) [][]trace.Record {
	nodes := 1 + rng.Intn(6)
	perNode := make([][]trace.Record, nodes)
	for n := range perNode {
		recs := make([]trace.Record, rng.Intn(300))
		for i := range recs {
			recs[i] = trace.Record{
				Time:    sim.Time(rng.Intn(30)) * sim.Time(sim.Second),
				Sector:  uint32(rng.Intn(10)) * 50000,
				Count:   uint16(rng.Intn(64) + 1),
				Pending: uint16(rng.Intn(4)),
				Op:      trace.Op(rng.Intn(2)),
				Node:    uint8(n),
				Origin:  trace.Origin(rng.Intn(7)),
			}
		}
		if sorted {
			recs = normalizeTrace(recs)
		}
		perNode[n] = recs
	}
	return perNode
}

func TestQuickProfileParallelMatchesSequential(t *testing.T) {
	const diskSectors = 1024000
	for _, sorted := range []bool{true, false} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			perNode := mkPerNode(rng, sorted)
			want := Characterize("t", trace.Merge(perNode...), 30*sim.Second, len(perNode), diskSectors)
			for _, workers := range []int{1, 2, 8} {
				got := ProfileParallel("t", perNode, 30*sim.Second, len(perNode), diskSectors, workers)
				if !reflect.DeepEqual(got, want) {
					t.Logf("workers=%d sorted=%v seed=%d:\n got %+v\nwant %+v", workers, sorted, seed, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("sorted=%v: %v", sorted, err)
		}
	}
}

// TestProfilerMergeConcatenation splits one merged stream at an arbitrary
// point — the chunked-file sharding shape — and requires the folded
// profilers to equal the sequential pass.
func TestProfilerMergeConcatenation(t *testing.T) {
	const diskSectors = 1024000
	rng := rand.New(rand.NewSource(17))
	merged := trace.Merge(mkPerNode(rng, true)...)
	if len(merged) < 10 {
		t.Fatal("fixture too small")
	}
	want := Characterize("t", merged, 30*sim.Second, 4, diskSectors)
	for _, cut := range []int{0, 1, len(merged) / 3, len(merged) - 1, len(merged)} {
		a := NewProfiler("t", 30*sim.Second, 4, diskSectors)
		b := NewProfiler("t", 30*sim.Second, 4, diskSectors)
		a.SetAnchor(merged[0].Time)
		b.SetAnchor(merged[0].Time)
		feed(a, merged[:cut])
		feed(b, merged[cut:])
		a.Merge(b)
		if got := a.Profile(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut=%d:\n got %+v\nwant %+v", cut, got, want)
		}
	}
}
