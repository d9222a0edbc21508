package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestQuickBatchWriterMatchesPerRecord pins the columnar-batch encoder
// to the per-record encoder byte for byte.
func TestQuickBatchWriterMatchesPerRecord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkRandTraces(rng)[0]
		var perRecord bytes.Buffer
		w := NewWriter(&perRecord)
		for _, r := range recs {
			if err := w.Add(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		var batched bytes.Buffer
		bw := NewWriter(&batched)
		var cols ColBatch
		cols.AppendRecords(recs)
		if err := bw.AddCols(&cols); err != nil {
			return false
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		return bytes.Equal(perRecord.Bytes(), batched.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBatchReaderMatchesPerRecord decodes the same encoding through
// NextCols with an awkward batch size and through Next, and requires
// identical records.
func TestQuickBatchReaderMatchesPerRecord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkRandTraces(rng)[0]
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			return false
		}
		var perRecord []Record
		r := NewReader(bytes.NewReader(buf.Bytes()))
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			perRecord = append(perRecord, rec)
		}
		// 7-record batches force many refills and a ragged final batch.
		br := NewReader(bytes.NewReader(buf.Bytes()))
		var batched []Record
		for {
			cols, err := br.NextCols(7)
			if cols != nil {
				batched = cols.AppendTo(batched)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
		}
		return reflect.DeepEqual(perRecord, batched)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchReaderTruncatedFile ensures a trailing partial record errors on
// the columnar batch path the same way the per-record path reports it.
func TestBatchReaderTruncatedFile(t *testing.T) {
	recs := mkRandTraces(rand.New(rand.NewSource(3)))[0]
	if len(recs) == 0 {
		recs = []Record{{Sector: 1, Count: 2}}
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-3]
	br := NewReader(bytes.NewReader(truncated))
	got := 0
	var err error
	for {
		var cols *ColBatch
		cols, err = br.NextCols(DefaultBatchLen)
		if cols != nil {
			got += cols.Len()
		}
		if err != nil {
			break
		}
	}
	if err == io.EOF || err == nil {
		t.Fatalf("truncated read: n=%d err=%v", got, err)
	}
	if _, perRecord := nextAll(NewReader(bytes.NewReader(truncated))); perRecord == nil || perRecord.Error() != err.Error() {
		t.Fatalf("batch error %v, per-record error %v", err, perRecord)
	}
	if got != len(recs)-1 {
		t.Fatalf("salvaged %d of %d whole records", got, len(recs)-1)
	}
}

// TestCollectorPreSize checks the capacity hint eliminates regrowth
// without changing semantics.
func TestCollectorPreSize(t *testing.T) {
	recs := mkRandTraces(rand.New(rand.NewSource(13)))[0]
	c := NewCollector(len(recs))
	var cols ColBatch
	cols.AppendRecords(recs)
	if err := c.AddCols(&cols); err != nil {
		t.Fatal(err)
	}
	if len(recs) > 0 && cap(c.Recs) != len(recs) {
		t.Fatalf("cap %d, want exactly %d", cap(c.Recs), len(recs))
	}
	got, err := CollectSize(SliceSource(recs), len(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("collected %d of %d", len(got), len(recs))
	}
}

// nextAll drains src record by record through Next, returning the
// records decoded before the first error and that error (nil at a clean
// end of stream).
func nextAll(src Source) ([]Record, error) {
	var out []Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// colsAll drains src through NextCols with batches of at most max
// records, returning the records decoded before the first error and
// that error (nil at a clean end of stream).
func colsAll(src ColSource, max int) ([]Record, error) {
	var out []Record
	for {
		cols, err := src.NextCols(max)
		if cols != nil {
			out = cols.AppendTo(out)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}
