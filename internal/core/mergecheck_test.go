package core_test

import (
	"testing"

	"essio/internal/core"
	"essio/internal/sim"
	"essio/internal/trace"
)

// leakyAcc drops field b in Merge on purpose: the checker must notice.
type leakyAcc struct {
	a, b int
}

func (l *leakyAcc) Merge(o *leakyAcc) { l.a += o.a }

func TestMergeDropsCatchesDroppedField(t *testing.T) {
	drops, err := core.MergeDrops(
		func() any { return &leakyAcc{} },
		func(acc any, shard int) {
			l := acc.(*leakyAcc)
			l.a, l.b = shard+1, shard+2
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(drops) != 1 || drops[0] != "b" {
		t.Fatalf("drops = %v, want [b]", drops)
	}
}

func TestMergeDropsRejectsNonAccumulators(t *testing.T) {
	if _, err := core.MergeDrops(func() any { return &struct{ x int }{} }, func(any, int) {}); err == nil {
		t.Fatal("expected error for type without Merge")
	}
}

// feedProfiler plays a two-shard workload: shard 1 is a time-contiguous
// continuation of shard 0, the split the parallel driver produces.
func feedProfiler(acc any, shard int) {
	p := acc.(*core.Profiler)
	p.SetAnchor(0)
	base := sim.Time(shard) * sim.Time(5*sim.Second)
	var b trace.ColBatch
	for i := 0; i < 40; i++ {
		b.AppendRecord(trace.Record{
			Time:    base + sim.Time(i)*sim.Time(sim.Second/8),
			Sector:  uint32(1000*i + shard*64),
			Count:   uint16(8 + i%3),
			Pending: uint16(i % 5),
			Op:      trace.Op(i % 2),
			Node:    uint8(i % 2),
			Origin:  trace.Origin(i % 7),
		})
	}
	if err := p.AddCols(&b); err != nil {
		panic(err)
	}
}

func TestProfilerMergePropagatesEveryField(t *testing.T) {
	drops, err := core.MergeDrops(
		func() any {
			return core.NewProfiler("wl", sim.Duration(10*sim.Second), 2, 1<<20)
		},
		feedProfiler,
		// Construction-time configuration, identical across shards; the
		// same five fields carry //essvet:mergeignore in stream.go, and
		// the two exemption lists must stay in lockstep. om holds the
		// per-worker observability handles, whose registries merge on
		// their own (see ProfileParallelObs).
		"label", "nodes", "duration", "diskSectors", "om",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(drops) > 0 {
		t.Fatalf("Profiler.Merge drops state of fields %v", drops)
	}
}
