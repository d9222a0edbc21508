package core

// Column-propagation check for the Profiler: perturbing any one column
// of a sample batch must change the state its AddCols leaves behind.
// The Profiler reads all seven columns, directly or through the
// analysis accumulators it feeds, so a dropped column read is reported
// by name.

import (
	"fmt"
	"reflect"
	"testing"

	"essio/internal/sim"
	"essio/internal/trace"
)

func TestProfilerAddColsPropagatesEveryColumn(t *testing.T) {
	batch := new(trace.ColBatch)
	for i := 0; i < 48; i++ {
		batch.AppendRecord(trace.Record{
			Time:    sim.Time(i) * sim.Time(sim.Second/8),
			Sector:  uint32(1000 * i),
			Count:   uint16(8 + i%3),
			Pending: uint16(i % 5),
			Op:      trace.Op(i % 2),
			Node:    uint8(i % 2),
			Origin:  trace.Origin(i % 7),
		})
	}
	// fold counts an AddCols error or panic as noticing a perturbation,
	// since validity and geometry checks read the column.
	fold := func(b *trace.ColBatch) (p *Profiler, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		p = NewProfiler("wl", sim.Duration(10*sim.Second), 2, 1<<20)
		p.SetAnchor(0)
		return p, p.AddCols(b)
	}
	base, err := fold(batch)
	if err != nil {
		t.Fatalf("unperturbed AddCols: %v", err)
	}
	for _, col := range []string{"Times", "Sectors", "Counts", "Pendings", "Ops", "Nodes", "Origins"} {
		propagated := false
		for variant := 0; variant < 2 && !propagated; variant++ {
			c := new(trace.ColBatch)
			c.AppendCols(batch)
			perturb(reflect.ValueOf(c).Elem().FieldByName(col), variant)
			got, err := fold(c)
			propagated = err != nil || !reflect.DeepEqual(got, base)
		}
		if !propagated {
			t.Errorf("Profiler.AddCols drops column %s", col)
		}
	}
}
