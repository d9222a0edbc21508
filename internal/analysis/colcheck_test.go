package analysis

// Column-propagation check: for every column an accumulator reads,
// perturbing that column of a sample batch must change the state its
// AddCols leaves behind. The equivalence suites in cols_test.go compare
// AddCols with the row oracle on random streams; this check shifts one
// column at a time, so a dropped column read is reported by name.

import (
	"fmt"
	"reflect"
	"testing"

	"essio/internal/sim"
	"essio/internal/trace"
)

// colSampleBatch builds a columnar workload exercising every column:
// increasing times, mixed ops, varied sizes and queue depths, two
// nodes, and all origin tags.
func colSampleBatch() *trace.ColBatch {
	b := new(trace.ColBatch)
	for i := 0; i < 48; i++ {
		b.AppendRecord(trace.Record{
			Time:    sim.Time(i) * sim.Time(sim.Second/8),
			Sector:  uint32(1000 * i),
			Count:   uint16(8 + i%3),
			Pending: uint16(i % 5),
			Op:      trace.Op(i % 2),
			Node:    uint8(i % 2),
			Origin:  trace.Origin(i % 7),
		})
	}
	return b
}

// droppedCols reports the columns of batch whose perturbation leaves the
// state built by newAcc().AddCols unchanged. Each column is shifted up,
// then down; an AddCols error or panic counts as noticing the change,
// since validity and geometry checks read the column.
func droppedCols(t *testing.T, newAcc func() trace.ColSink, batch *trace.ColBatch, cols []string) []string {
	t.Helper()
	fold := func(b *trace.ColBatch) (acc trace.ColSink, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		acc = newAcc()
		return acc, acc.AddCols(b)
	}
	base, err := fold(batch)
	if err != nil {
		t.Fatalf("unperturbed AddCols: %v", err)
	}
	var drops []string
	for _, col := range cols {
		propagated := false
		for variant := 0; variant < 2 && !propagated; variant++ {
			got, err := fold(shiftCol(t, batch, col, variant))
			propagated = err != nil || !reflect.DeepEqual(got, base)
		}
		if !propagated {
			drops = append(drops, col)
		}
	}
	return drops
}

// shiftCol returns a copy of batch with every value of the named column
// moved up (variant 0) or down (variant 1), wrapping unsigned values.
// The step is sized by width: large enough to cross time buckets and
// sector bands on wide columns, small enough to stay near the valid op
// and origin codes on 8-bit ones.
func shiftCol(t *testing.T, batch *trace.ColBatch, col string, variant int) *trace.ColBatch {
	t.Helper()
	c := new(trace.ColBatch)
	c.AppendCols(batch)
	s := reflect.ValueOf(c).Elem().FieldByName(col)
	if s.Kind() != reflect.Slice {
		t.Fatalf("ColBatch has no column %q", col)
	}
	for i := 0; i < s.Len(); i++ {
		e := s.Index(i)
		d := map[int]int64{64: 1 << 40, 32: 1 << 20, 16: 1 << 9, 8: 3}[e.Type().Bits()]
		if variant == 1 {
			d = -d
		}
		if e.CanInt() {
			e.SetInt(e.Int() + d)
		} else {
			e.SetUint(e.Uint() + uint64(d))
		}
	}
	return c
}

// TestAddColsPropagatesEveryColumn runs the column-propagation check
// over all nine accumulators. Each cols list names exactly the columns
// the accumulator's fold reads.
func TestAddColsPropagatesEveryColumn(t *testing.T) {
	cases := []struct {
		name string
		acc  func() trace.ColSink
		cols []string
	}{
		{"SummaryAcc", func() trace.ColSink {
			return NewSummaryAcc("wl", sim.Duration(10*sim.Second), 2)
		}, []string{"Ops", "Times"}},
		{"SizeHistAcc", func() trace.ColSink { return NewSizeHistAcc() }, []string{"Counts"}},
		{"SizeClassAcc", func() trace.ColSink { return NewSizeClassAcc() }, []string{"Counts"}},
		{"OriginAcc", func() trace.ColSink { return NewOriginAcc() }, []string{"Origins"}},
		{"BandsAcc", func() trace.ColSink { return NewBandsAcc(1<<16, 1<<20) }, []string{"Sectors"}},
		{"HeatAcc", func() trace.ColSink { return NewHeatAcc() }, []string{"Sectors"}},
		{"RateAcc", func() trace.ColSink { return NewRateAcc() }, []string{"Times"}},
		{"PendingAcc", func() trace.ColSink { return NewPendingAcc() }, []string{"Pendings"}},
		{"InterAccessAcc", func() trace.ColSink { return NewInterAccessAcc() }, []string{"Sectors", "Times"}},
	}
	batch := colSampleBatch()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if drops := droppedCols(t, tc.acc, batch, tc.cols); len(drops) > 0 {
				t.Fatalf("%s.AddCols drops columns %v", tc.name, drops)
			}
		})
	}
}
