package model

// The Fitter's columnar entry point is a sequential unpack — gap and
// run-length features couple consecutive records, so there is no
// vectorized shortcut — and must therefore leave bit-identical state to
// the per-record step for any batch chunking.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"essio/internal/trace"
)

func TestQuickFitterColsMatchRows(t *testing.T) {
	const diskSectors = 1024000
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkMergedStream(rng)
		rows := NewFitter("t", 0, diskSectors, 0)
		cols := NewFitter("t", 0, diskSectors, 0)
		for _, r := range recs {
			rows.add(r)
		}
		var b trace.ColBatch
		rest := recs
		for len(rest) > 0 {
			n := 1 + rng.Intn(len(rest))
			b.Reset()
			b.AppendRecords(rest[:n])
			if err := cols.AddCols(&b); err != nil {
				return false
			}
			rest = rest[n:]
		}
		if !reflect.DeepEqual(rows, cols) {
			return false
		}
		return reflect.DeepEqual(rows.Model(), cols.Model())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// addRecs folds recs into f as one columnar batch.
func addRecs(f *Fitter, recs []trace.Record) {
	var b trace.ColBatch
	b.AppendRecords(recs)
	if err := f.AddCols(&b); err != nil {
		panic(err)
	}
}
