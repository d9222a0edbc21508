// Runtime merge-propagation check for the model fitter, the behavioral
// complement to the essvet mergefields analyzer.
package model_test

import (
	"testing"

	"essio/internal/core"
	"essio/internal/model"
	"essio/internal/sim"
	"essio/internal/trace"
)

func feedFitter(acc any, shard int) {
	f := acc.(*model.Fitter)
	f.SetAnchor(0) // shards of one pass share the anchor
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
	if err := f.AddCols(&b); err != nil {
		panic(err)
	}
}

func TestFitterMergePropagatesEveryField(t *testing.T) {
	drops, err := core.MergeDrops(
		func() any { return model.NewFitter("wl", 2, 1<<20, 0) },
		feedFitter,
		// label, nodes, and diskSectors are construction-time
		// configuration carrying //essvet:mergeignore in fit.go; the two
		// exemption lists must stay in lockstep. any and anchored are
		// receiver-adoption flags only read when the receiver is empty —
		// o.n == 0 gates donor emptiness — so a live-vs-live merge
		// cannot observe them.
		"label", "nodes", "diskSectors", "any", "anchored",
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(drops) > 0 {
		t.Fatalf("Fitter.Merge drops state of fields %v", drops)
	}
}
