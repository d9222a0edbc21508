package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Source is a pull iterator over trace records. Next returns io.EOF once
// the stream is exhausted; any other error is terminal. Sources let the
// capture→analysis path process traces of arbitrary length in bounded
// memory: readers decode incrementally, merges hold one bounded buffer per
// input, and accumulators consume records as they appear.
type Source interface {
	Next() (Record, error)
}

// Sink is a push consumer of trace records. Analysis accumulators, trace
// writers, and fan-out tees all implement Sink so a single pass over a
// Source can feed every consumer at once.
type Sink interface {
	Add(Record) error
}

// sliceSource iterates over an in-memory trace.
type sliceSource struct {
	recs []Record
	i    int
}

// SliceSource adapts an in-memory trace to the Source interface. It is
// a row producer: columnar consumers read it through ToColSource.
func SliceSource(recs []Record) Source { return &sliceSource{recs: recs} }

func (s *sliceSource) Next() (Record, error) {
	if s.i >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// Collector is a Sink and a ColSink that materializes the stream as a
// slice, the adapter back to the in-memory world.
type Collector struct {
	Recs []Record
}

// NewCollector returns a Collector pre-sized for capacity records, so
// known-length paths avoid append regrowth.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		return &Collector{}
	}
	return &Collector{Recs: make([]Record, 0, capacity)}
}

// Add appends r.
func (c *Collector) Add(r Record) error {
	c.Recs = append(c.Recs, r)
	return nil
}

// AddCols appends a whole columnar batch, transposing once.
func (c *Collector) AddCols(cols *ColBatch) error {
	c.Recs = cols.AppendTo(c.Recs)
	return nil
}

// Collect drains src into a slice.
func Collect(src Source) ([]Record, error) { return CollectSize(src, 0) }

// CollectSize drains src into a slice pre-sized for sizeHint records; the
// hint eliminates append regrowth when the stream length is known.
func CollectSize(src Source, sizeHint int) ([]Record, error) {
	c := NewCollector(sizeHint)
	if _, err := Copy(c, src); err != nil {
		return c.Recs, err
	}
	return c.Recs, nil
}

// Copy streams every record from src into dst and reports how many records
// were transferred. It stops at the first error from either side. A dst
// that is also a ColSink — every sink of this package is — receives
// whole columnar batches: column views straight from a decoder or the
// merge, or the row edge's transpose (ToColSource) for anything else.
// Other sinks receive one Add per record.
func Copy(dst Sink, src Source) (int, error) {
	if cd, ok := dst.(ColSink); ok {
		return CopyCols(cd, ToColSource(src))
	}
	n := 0
	for {
		r, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := dst.Add(r); err != nil {
			return n, err
		}
		n++
	}
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Record) error

// Add calls f(r).
func (f SinkFunc) Add(r Record) error { return f(r) }

// tee fans each columnar batch out to several sinks.
type tee []ColSink

// Tee returns a ColSink that forwards every batch to each sink in order,
// so one pass over a trace feeds any number of accumulators. Every sink
// reads the same column views; none may retain them.
func Tee(sinks ...ColSink) ColSink { return tee(sinks) }

func (t tee) AddCols(cols *ColBatch) error {
	for _, s := range t {
		if err := s.AddCols(cols); err != nil {
			return err
		}
	}
	return nil
}

// less is the trace ordering: (Time, Node, Sector).
func less(a, b Record) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Sector < b.Sector
}

// Less reports the trace ordering for callers outside the package that
// must reproduce the merge order exactly (the parallel characterizer
// normalizes per-node shards with it).
func Less(a, b Record) bool { return less(a, b) }

// SortedByKey reports whether recs is already ordered by (Time, Node,
// Sector), the exported form of the merge's pre-sort check.
func SortedByKey(recs []Record) bool { return sortedByKey(recs) }

// sortedByKey reports whether recs is already ordered by (Time, Node,
// Sector).
func sortedByKey(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if less(recs[i], recs[i-1]) {
			return false
		}
	}
	return true
}

// MergeSlices returns a streaming k-way merge over in-memory per-node
// traces. Inputs that are not already key-ordered are stably sorted on a
// pre-sized private copy first, so the merged order is identical to Merge
// for any input.
func MergeSlices(traces ...[]Record) Source {
	srcs := make([]Source, len(traces))
	for i, t := range traces {
		if !sortedByKey(t) {
			c := make([]Record, len(t))
			copy(c, t)
			sort.SliceStable(c, func(a, b int) bool { return less(c[a], c[b]) })
			t = c
		}
		srcs[i] = SliceSource(t)
	}
	return MergeSources(srcs...)
}

// batchBytes is the codec's I/O granularity: encode and decode move whole
// 64 KiB buffers of fixed-size records per call into the underlying reader
// or writer instead of one record at a time.
const batchBytes = 64 << 10

// DefaultBatchLen is the record count of a default batch: as many
// fixed-size records as fit the 64 KiB codec granularity.
const DefaultBatchLen = batchBytes / RecordSize

// Reader decodes the binary trace format incrementally: one record per
// Next, or a whole 64 KiB buffer of records per NextCols, decoded
// straight into a reused columnar batch.
type Reader struct {
	br   *bufio.Reader
	raw  [batchBytes]byte
	cols ColBatch
}

// NewReader returns a streaming decoder for the binary trace format.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, batchBytes)}
}

// Next decodes the next record, returning io.EOF at a clean end of stream.
func (d *Reader) Next() (Record, error) {
	_, err := io.ReadFull(d.br, d.raw[:recordSize])
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("trace: read: %w", err)
	}
	return UnmarshalRecord(d.raw[:recordSize])
}

// NextCols decodes up to max records (at most DefaultBatchLen) in one
// pass over a whole encoded buffer and returns them as a view of the
// reader's batch, valid until the next call. Every record passes
// UnmarshalRecord's validation. An invalid record or a trailing partial
// record ends the stream with the error Next reports for it, returned
// together with the records decoded before it.
func (d *Reader) NextCols(max int) (*ColBatch, error) {
	if max <= 0 || max > DefaultBatchLen {
		max = DefaultBatchLen
	}
	nb, err := io.ReadFull(d.br, d.raw[:max*recordSize])
	full := nb / recordSize
	c := &d.cols
	c.resize(full)
	for i := 0; i < full; i++ {
		r, uerr := UnmarshalRecord(d.raw[i*recordSize:])
		if uerr != nil {
			*c = c.Slice(0, i)
			return c, uerr
		}
		c.set(i, r)
	}
	switch {
	case err == nil || err == io.ErrUnexpectedEOF && nb%recordSize == 0:
		return c, nil
	case err == io.EOF:
		return nil, io.EOF
	case err == io.ErrUnexpectedEOF:
		return c, fmt.Errorf("trace: read: %w", io.ErrUnexpectedEOF)
	default:
		return c, fmt.Errorf("trace: read: %w", err)
	}
}

// Writer encodes records to the binary trace format incrementally. It is
// a Sink and a ColSink — AddCols marshals whole 64 KiB buffers per write
// call. Call Flush when the stream ends.
type Writer struct {
	bw  *bufio.Writer
	raw [batchBytes]byte
}

// NewWriter returns a streaming encoder for the binary trace format.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, batchBytes)}
}

// Add encodes one record.
func (t *Writer) Add(r Record) error {
	r.Marshal(t.raw[:recordSize])
	if _, err := t.bw.Write(t.raw[:recordSize]); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}

// AddCols encodes a columnar batch, marshaling records into full 64 KiB
// buffers before each write call.
func (t *Writer) AddCols(cols *ColBatch) error {
	for i, n := 0, cols.Len(); i < n; {
		m := n - i
		if m > DefaultBatchLen {
			m = DefaultBatchLen
		}
		for j := 0; j < m; j++ {
			cols.Record(i + j).Marshal(t.raw[j*recordSize:])
		}
		if _, err := t.bw.Write(t.raw[:m*recordSize]); err != nil {
			return fmt.Errorf("trace: write: %w", err)
		}
		i += m
	}
	return nil
}

// Flush writes any buffered encoding to the underlying writer.
func (t *Writer) Flush() error { return t.bw.Flush() }
