// Columnar record batches: the one batch transport of the streaming
// pipeline. A ColBatch keeps each record field in its own slice, so an
// accumulator that touches two fields of every record scans two dense
// arrays instead of dragging all RecordSize bytes of each record through
// cache — the layout every AddCols fold iterates. ColSource and ColSink
// move column views across stage boundaries with a zero-copy discipline:
// a view is valid only until the next call into the source, and must
// never be retained. Every decoder and the k-way merge serve columns
// natively; per-record producers (in-memory slices, the synthesizer)
// reach column sinks through the one row-to-column shim, ToColSource.

package trace

import (
	"io"

	"essio/internal/sim"
)

// ColBatch is a batch of records in struct-of-arrays (columnar) layout.
// All seven column slices are always the same length; Len is the record
// count. The zero value is an empty batch.
type ColBatch struct {
	// Times holds Record.Time per record.
	Times []sim.Time
	// Sectors holds Record.Sector per record.
	Sectors []uint32
	// Counts holds Record.Count per record.
	Counts []uint16
	// Pendings holds Record.Pending per record.
	Pendings []uint16
	// Ops holds Record.Op per record.
	Ops []Op
	// Nodes holds Record.Node per record.
	Nodes []uint8
	// Origins holds Record.Origin per record.
	Origins []Origin
}

// Len reports the number of records in the batch.
func (b *ColBatch) Len() int { return len(b.Times) }

// Reset empties the batch, keeping the column capacity for reuse.
func (b *ColBatch) Reset() {
	b.Times = b.Times[:0]
	b.Sectors = b.Sectors[:0]
	b.Counts = b.Counts[:0]
	b.Pendings = b.Pendings[:0]
	b.Ops = b.Ops[:0]
	b.Nodes = b.Nodes[:0]
	b.Origins = b.Origins[:0]
}

// growCol returns s with length n, reallocating when capacity is short.
// Existing contents are not preserved; callers overwrite every element.
func growCol[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resize sets every column to length n for a decoder to fill in place.
func (b *ColBatch) resize(n int) {
	b.Times = growCol(b.Times, n)
	b.Sectors = growCol(b.Sectors, n)
	b.Counts = growCol(b.Counts, n)
	b.Pendings = growCol(b.Pendings, n)
	b.Ops = growCol(b.Ops, n)
	b.Nodes = growCol(b.Nodes, n)
	b.Origins = growCol(b.Origins, n)
}

// set overwrites record i of the columns with r.
func (b *ColBatch) set(i int, r Record) {
	b.Times[i], b.Sectors[i], b.Counts[i], b.Pendings[i] = r.Time, r.Sector, r.Count, r.Pending
	b.Ops[i], b.Nodes[i], b.Origins[i] = r.Op, r.Node, r.Origin
}

// AppendRecord transposes one record onto the columns.
func (b *ColBatch) AppendRecord(r Record) {
	b.Times = append(b.Times, r.Time)
	b.Sectors = append(b.Sectors, r.Sector)
	b.Counts = append(b.Counts, r.Count)
	b.Pendings = append(b.Pendings, r.Pending)
	b.Ops = append(b.Ops, r.Op)
	b.Nodes = append(b.Nodes, r.Node)
	b.Origins = append(b.Origins, r.Origin)
}

// AppendRecords transposes a whole record slice onto the columns.
func (b *ColBatch) AppendRecords(recs []Record) {
	for _, r := range recs {
		b.AppendRecord(r)
	}
}

// AppendCols appends every column of o onto b.
func (b *ColBatch) AppendCols(o *ColBatch) {
	b.Times = append(b.Times, o.Times...)
	b.Sectors = append(b.Sectors, o.Sectors...)
	b.Counts = append(b.Counts, o.Counts...)
	b.Pendings = append(b.Pendings, o.Pendings...)
	b.Ops = append(b.Ops, o.Ops...)
	b.Nodes = append(b.Nodes, o.Nodes...)
	b.Origins = append(b.Origins, o.Origins...)
}

// Record reassembles record i from the columns.
func (b *ColBatch) Record(i int) Record {
	return Record{
		Time:    b.Times[i],
		Sector:  b.Sectors[i],
		Count:   b.Counts[i],
		Pending: b.Pendings[i],
		Op:      b.Ops[i],
		Node:    b.Nodes[i],
		Origin:  b.Origins[i],
	}
}

// AppendTo materializes the batch as records appended to dst.
func (b *ColBatch) AppendTo(dst []Record) []Record {
	for i := range b.Times {
		dst = append(dst, b.Record(i))
	}
	return dst
}

// Slice returns a view of records [i, j) sharing the column backing
// arrays; the view is only as durable as the batch it came from.
func (b *ColBatch) Slice(i, j int) ColBatch {
	return ColBatch{
		Times:    b.Times[i:j],
		Sectors:  b.Sectors[i:j],
		Counts:   b.Counts[i:j],
		Pendings: b.Pendings[i:j],
		Ops:      b.Ops[i:j],
		Nodes:    b.Nodes[i:j],
		Origins:  b.Origins[i:j],
	}
}

// ColSource is a pull iterator over columnar batches. NextCols returns a
// view of up to max records (max <= 0 means DefaultBatchLen) that is
// valid only until the next call, and io.EOF at a clean end of stream.
// Like io.Reader, it may return a non-empty view together with an
// error — the records decoded before a malformed one — so callers
// consume the view before acting on the error; any error other than
// io.EOF is terminal. Sources of this package never return an empty
// view with a nil error.
type ColSource interface {
	NextCols(max int) (*ColBatch, error)
}

// ColSink is a push consumer of columnar batches. AddCols consumes every
// record of cols or returns the first error; cols must not be retained.
type ColSink interface {
	AddCols(cols *ColBatch) error
}

// CopyCols streams every record from src into dst at column granularity
// and reports how many records were transferred; the columnar form of
// Copy. Views move straight from the source into the sink's column
// scans.
func CopyCols(dst ColSink, src ColSource) (int, error) {
	n := 0
	for {
		cols, err := src.NextCols(DefaultBatchLen)
		if cols != nil && cols.Len() > 0 {
			if aerr := dst.AddCols(cols); aerr != nil {
				return n, aerr
			}
			n += cols.Len()
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// ToColSource adapts src to the columnar interface. Sources that serve
// columns — every decoder, file and reader source, and the merge of this
// package — are returned unchanged. Any other Source is a row producer
// (an in-memory slice, a synthesizer), and this is the row edge: its
// records are transposed into a reused batch, straight from the slice
// for SliceSource and one Next call at a time otherwise.
func ToColSource(src Source) ColSource {
	if cs, ok := src.(ColSource); ok {
		return cs
	}
	return &rowCols{src: src}
}

// rowCols is the row-to-column shim behind ToColSource.
type rowCols struct {
	src Source
	buf ColBatch
}

func (c *rowCols) NextCols(max int) (*ColBatch, error) {
	if max <= 0 {
		max = DefaultBatchLen
	}
	b := &c.buf
	b.resize(max)
	n := 0
	var err error
	if s, ok := c.src.(*sliceSource); ok {
		// In-memory rows transpose straight from the slice, without a
		// Next call per record.
		rest := s.recs[s.i:]
		if len(rest) > max {
			rest = rest[:max]
		}
		for j, r := range rest {
			b.set(j, r)
		}
		n = len(rest)
		s.i += n
		if n == 0 {
			err = io.EOF
		}
	} else {
		for ; n < max; n++ {
			var r Record
			if r, err = c.src.Next(); err != nil {
				break
			}
			b.set(n, r)
		}
	}
	*b = b.Slice(0, n)
	if n == 0 {
		return nil, err
	}
	return b, err
}

// SliceColSource adapts an in-memory columnar batch to the Source
// interface. The returned Source is also a ColSource serving sub-views
// of b without copying.
func SliceColSource(b *ColBatch) Source { return &colSliceSource{b: b} }

// colSliceSource iterates an in-memory columnar batch.
type colSliceSource struct {
	b    *ColBatch
	i    int
	view ColBatch
}

func (s *colSliceSource) Next() (Record, error) {
	if s.i >= s.b.Len() {
		return Record{}, io.EOF
	}
	r := s.b.Record(s.i)
	s.i++
	return r, nil
}

func (s *colSliceSource) NextCols(max int) (*ColBatch, error) {
	if s.i >= s.b.Len() {
		return nil, io.EOF
	}
	if max <= 0 {
		max = DefaultBatchLen
	}
	j := s.i + max
	if j > s.b.Len() {
		j = s.b.Len()
	}
	s.view = s.b.Slice(s.i, j)
	s.i = j
	return &s.view, nil
}
