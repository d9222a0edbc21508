package trace

// Equivalence suite for the columnar codec: the row pipeline is the
// oracle, so every columnar path — encoder, streaming decoder, mapped
// decoder, the batch adapters — must reproduce the row results record
// for record.

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"essio/internal/sim"
)

// mkColRecords builds a trace that exercises every column encoding:
// stretches of monotone timestamps and near-sequential sectors (delta
// wins), constant op/node/origin runs (RLE wins), and random jumps that
// force the raw fallback.
func mkColRecords(rng *rand.Rand) []Record {
	n := rng.Intn(3 * colBlockLen)
	recs := make([]Record, n)
	var t sim.Time
	var sec uint32
	for i := range recs {
		switch rng.Intn(4) {
		case 0: // sequential stretch
			t += sim.Time(rng.Intn(1000))
			sec += uint32(rng.Intn(64))
		default: // jump
			t += sim.Time(rng.Intn(int(sim.Second)))
			sec = rng.Uint32()
		}
		recs[i] = Record{
			Time:    t,
			Sector:  sec,
			Count:   uint16(rng.Intn(256) + 1),
			Pending: uint16(rng.Intn(16)),
			Op:      Op(rng.Intn(2)),
			Node:    uint8(rng.Intn(16)),
			Origin:  Origin(rng.Intn(7)),
		}
	}
	return recs
}

func TestColRoundTripFixed(t *testing.T) {
	recs := fileTestRecords()
	var buf bytes.Buffer
	if err := WriteCol(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCol(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("columnar round trip diverged:\n got %v\nwant %v", got, recs)
	}
}

func TestColEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCol(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(colMagic) {
		t.Fatalf("empty columnar stream is %d bytes, want %d (magic only)", buf.Len(), len(colMagic))
	}
	got, err := ReadCol(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty stream decoded to %d records", len(got))
	}
	// A zero-byte stream is an empty trace too, mirroring the row codec.
	got, err = ReadCol(bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("zero-byte stream: recs=%d err=%v", len(got), err)
	}
}

// TestQuickColRoundTrip pins the codec record-exact against the row
// representation across randomized traces.
func TestQuickColRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkColRecords(rng)
		var buf bytes.Buffer
		if err := WriteCol(&buf, recs); err != nil {
			return false
		}
		got, err := ReadCol(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if len(recs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickColWriterPathsIdentical requires the encoder entry points —
// Add, AddCols, and Copy from a row source — to emit byte-identical
// files.
func TestQuickColWriterPathsIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkColRecords(rng)

		var perRecord bytes.Buffer
		w := NewColWriter(&perRecord)
		for _, r := range recs {
			if err := w.Add(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}

		var batched bytes.Buffer
		bw := NewColWriter(&batched)
		if _, err := Copy(bw, SliceSource(recs)); err != nil {
			return false
		}
		if err := bw.Flush(); err != nil {
			return false
		}

		var cols ColBatch
		cols.AppendRecords(recs)
		var colled bytes.Buffer
		cw := NewColWriter(&colled)
		if err := cw.AddCols(&cols); err != nil {
			return false
		}
		if err := cw.Flush(); err != nil {
			return false
		}

		return bytes.Equal(perRecord.Bytes(), batched.Bytes()) &&
			bytes.Equal(perRecord.Bytes(), colled.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// drainCols collects every record a ColSource yields through NextCols.
func drainCols(t *testing.T, src ColSource) []Record {
	t.Helper()
	var out []Record
	for {
		view, err := src.NextCols(0)
		if view != nil {
			out = view.AppendTo(out)
		}
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if view.Len() == 0 {
			t.Fatal("NextCols returned an empty view without error")
		}
	}
}

// TestQuickMappedMatchesReader decodes the same encoding through the
// buffered ColReader and the zero-copy mapped source and requires
// identical records — the mmap path's aliasing must be invisible.
func TestQuickMappedMatchesReader(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkColRecords(rng)
		var buf bytes.Buffer
		if err := WriteCol(&buf, recs); err != nil {
			return false
		}
		want, err := ReadCol(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		ms, err := newMappedColSource(buf.Bytes())
		if err != nil {
			return false
		}
		got := drainCols(t, ms)
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMappedRowAccessors drains the mapped source through Next and
// through NextCols with an awkward batch size; both must agree.
func TestMappedRowAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := mkColRecords(rng)
	var buf bytes.Buffer
	if err := WriteCol(&buf, recs); err != nil {
		t.Fatal(err)
	}

	ms, err := newMappedColSource(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var byNext []Record
	for {
		r, err := ms.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		byNext = append(byNext, r)
	}
	if !reflect.DeepEqual(byNext, recs) {
		t.Fatal("mapped Next diverged from input records")
	}

	ms2, err := newMappedColSource(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// 37-record batches are deliberately misaligned with the block size.
	byBatch, err := colsAll(ms2, 37)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byBatch, recs) {
		t.Fatal("mapped NextCols diverged from input records")
	}
}

// TestQuickColAdapters checks the row edge and the columnar sources: a
// row source lifted by ToColSource, a columnar decoder drained record by
// record, and a slice batch served by SliceColSource must all reproduce
// the records.
func TestQuickColAdapters(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkColRecords(rng)

		lifted := drainCols(t, ToColSource(SliceSource(recs)))
		if !recsEqual(lifted, recs) {
			return false
		}

		var buf bytes.Buffer
		if err := WriteCol(&buf, recs); err != nil {
			return false
		}
		lowered, err := nextAll(NewColReader(bytes.NewReader(buf.Bytes())))
		if err != nil || !recsEqual(lowered, recs) {
			return false
		}

		var cols ColBatch
		cols.AppendRecords(recs)
		sliced, err := Collect(SliceColSource(&cols))
		return err == nil && recsEqual(sliced, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// nativeCols reports whether d decodes the columnar format itself — the
// mapped source or the streaming ColReader — rather than transposing
// rows.
func nativeCols(d decoder) bool {
	switch d := d.(type) {
	case *mappedColSource, *ColReader:
		return true
	case *ReaderSource:
		return nativeCols(d.dec)
	}
	return false
}

func recsEqual(a, b []Record) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestOpenFileSourceCol writes a columnar file and opens it both with an
// explicit format and by sniffing; the open source must expose a native
// columnar view (mmap-backed where the platform allows).
func TestOpenFileSourceCol(t *testing.T) {
	recs := fileTestRecords()
	path := filepath.Join(t.TempDir(), "trace.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCol(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, format := range []string{FormatCol, ""} {
		src, err := OpenFileSource(path, format)
		if err != nil {
			t.Fatalf("open %q: %v", format, err)
		}
		if src.Format() != FormatCol {
			t.Fatalf("format %q: sniffed %q, want %q", format, src.Format(), FormatCol)
		}
		if !nativeCols(src.dec) {
			t.Fatalf("format %q: columnar file source has no native column view", format)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("format %q: records diverged", format)
		}
	}
}

// TestReaderSourceColSniff feeds a columnar stream through the sniffing
// reader used for stdin and uploads.
func TestReaderSourceColSniff(t *testing.T) {
	recs := fileTestRecords()
	var buf bytes.Buffer
	if err := WriteCol(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rs, err := NewReaderSource(bytes.NewReader(buf.Bytes()), "")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Format() != FormatCol {
		t.Fatalf("sniffed %q, want %q", rs.Format(), FormatCol)
	}
	if !nativeCols(rs.dec) {
		t.Fatal("sniffed columnar reader source has no native column view")
	}
	got, err := Collect(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("sniffed columnar stream diverged")
	}
}

// TestCopyColFastPath routes a columnar source into a columnar sink via
// Copy and checks the column fast path produces the same file as the
// row-by-row oracle.
func TestCopyColFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	recs := mkColRecords(rng)
	var in bytes.Buffer
	if err := WriteCol(&in, recs); err != nil {
		t.Fatal(err)
	}

	var viaCopy bytes.Buffer
	w := NewColWriter(&viaCopy)
	n, err := Copy(w, NewColReader(bytes.NewReader(in.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("Copy moved %d records, want %d", n, len(recs))
	}

	var viaRows bytes.Buffer
	rw := NewColWriter(&viaRows)
	for _, r := range recs {
		if err := rw.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaCopy.Bytes(), viaRows.Bytes()) {
		t.Fatal("columnar Copy fast path produced different bytes than row-by-row encoding")
	}
}

// benchColRecords is the merged form of the 16×4096 merge fixture, the
// same stream the root CharacterizeStreaming benchmarks consume.
func benchColRecords() []Record {
	traces := benchMergeTraces(16, 4096)
	return Merge(traces...)
}

func BenchmarkColWrite(b *testing.B) {
	recs := benchColRecords()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := NewColWriter(&buf)
		if _, err := Copy(w, SliceSource(recs)); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs) * RecordSize))
	b.ReportMetric(float64(buf.Len())/float64(len(recs)*RecordSize), "ratio")
}

func BenchmarkColRead(b *testing.B) {
	recs := benchColRecords()
	var buf bytes.Buffer
	if err := WriteCol(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(recs) * RecordSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewColReader(bytes.NewReader(data))
		n := 0
		for {
			view, err := d.NextCols(0)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += view.Len()
		}
		if n != len(recs) {
			b.Fatalf("decoded %d records, want %d", n, len(recs))
		}
	}
}

// BenchmarkColMmapScan drains the zero-copy mapped decoder — the state
// the accumulators see when a columnar file is opened through mmap.
func BenchmarkColMmapScan(b *testing.B) {
	recs := benchColRecords()
	var buf bytes.Buffer
	if err := WriteCol(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(recs) * RecordSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := newMappedColSource(data)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			view, err := ms.NextCols(0)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += view.Len()
		}
		if n != len(recs) {
			b.Fatalf("decoded %d records, want %d", n, len(recs))
		}
	}
}

// TestMergeRunCopyStability pins the loser tree's bulk run copying on
// the adversarial case: every input holds the same key many times, so
// stability (FIFO by input index) is the only thing ordering the output.
func TestMergeRunCopyStability(t *testing.T) {
	const inputs, per = 4, 100
	traces := make([][]Record, inputs)
	for n := range traces {
		recs := make([]Record, per)
		for i := range recs {
			recs[i] = Record{
				Time:    sim.Time(sim.Second),
				Sector:  4096,
				Count:   uint16(i + 1), // payload marks position within input
				Node:    0,             // identical keys across ALL inputs
				Pending: uint16(n),     // payload marks source input
			}
		}
		traces[n] = recs
	}
	mk := func() []Source {
		srcs := make([]Source, inputs)
		for i, tr := range traces {
			srcs[i] = SliceSource(tr)
		}
		return srcs
	}
	want, err := Collect(heapMergeSources(mk()...))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(MergeSources(mk()...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("run-copying merge broke stability on all-equal keys")
	}
}
