// Runtime merge-propagation checks for every accumulator of this
// package, the behavioral complement to the essvet mergefields
// analyzer: core.MergeDrops perturbs each field of a shard-1 donor and
// asserts the perturbation survives Merge into a shard-0 receiver.
package analysis_test

import (
	"testing"

	"essio/internal/analysis"
	"essio/internal/core"
	"essio/internal/sim"
	"essio/internal/trace"
)

// feedRecords plays a two-shard workload into any columnar sink as one
// batch; shard 1 continues shard 0 in time, as chunked parallel passes
// arrange.
func feedRecords(sink trace.ColSink, shard int) {
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
	if err := sink.AddCols(&b); err != nil {
		panic(err)
	}
}

func TestAccumulatorMergesPropagateEveryField(t *testing.T) {
	cases := []struct {
		name   string
		newAcc func() any
		feed   func(acc any, shard int)
		ignore []string
	}{
		{
			name:   "SummaryAcc",
			newAcc: func() any { return analysis.NewSummaryAcc("wl", sim.Duration(10*sim.Second), 2) },
			feed:   func(acc any, shard int) { feedRecords(acc.(trace.ColSink), shard) },
		},
		{
			name:   "SizeHistAcc",
			newAcc: func() any { return analysis.NewSizeHistAcc() },
			feed:   func(acc any, shard int) { feedRecords(acc.(trace.ColSink), shard) },
		},
		{
			name:   "SizeClassAcc",
			newAcc: func() any { return analysis.NewSizeClassAcc() },
			feed:   func(acc any, shard int) { feedRecords(acc.(trace.ColSink), shard) },
		},
		{
			name:   "OriginAcc",
			newAcc: func() any { return analysis.NewOriginAcc() },
			feed:   func(acc any, shard int) { feedRecords(acc.(trace.ColSink), shard) },
		},
		{
			name:   "BandsAcc",
			newAcc: func() any { return analysis.NewBandsAcc(1<<16, 1<<20) },
			feed:   func(acc any, shard int) { feedRecords(acc.(trace.ColSink), shard) },
		},
		{
			name:   "HeatAcc",
			newAcc: func() any { return analysis.NewHeatAcc() },
			feed:   func(acc any, shard int) { feedRecords(acc.(trace.ColSink), shard) },
		},
		{
			name:   "RateAcc",
			newAcc: func() any { return analysis.NewRateAcc() },
			feed: func(acc any, shard int) {
				a := acc.(*analysis.RateAcc)
				a.SetAnchor(0) // shards of one pass share the anchor
				feedRecords(a, shard)
			},
			// anchored is only read on the empty-receiver adopt path;
			// with live records on both sides, b.any gates the merge.
			ignore: []string{"anchored"},
		},
		{
			name:   "PendingAcc",
			newAcc: func() any { return analysis.NewPendingAcc() },
			feed:   func(acc any, shard int) { feedRecords(acc.(trace.ColSink), shard) },
		},
		{
			name:   "InterAccessAcc",
			newAcc: func() any { return analysis.NewInterAccessAcc() },
			feed:   func(acc any, shard int) { feedRecords(acc.(trace.ColSink), shard) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drops, err := core.MergeDrops(tc.newAcc, tc.feed, tc.ignore...)
			if err != nil {
				t.Fatal(err)
			}
			if len(drops) > 0 {
				t.Fatalf("%s.Merge drops state of fields %v", tc.name, drops)
			}
		})
	}
}
