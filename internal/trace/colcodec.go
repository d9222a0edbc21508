// Columnar on-disk trace codec (FormatCol). A file is an 8-byte magic
// followed by self-describing blocks of up to colBlockLen records; each
// block stores the seven record columns independently:
//
//	block  := count:u32le, 7 × (enc:u8, size:u32le), 7 × column payload
//	column := padding to an 8-byte file offset, then size bytes
//
// Encodings are chosen per column per block, falling back to raw
// fixed-width little-endian whenever compression would not be strictly
// smaller:
//
//	raw    (0) fixed-width little-endian values
//	delta  (1) zigzag varint deltas from the previous value (prev = 0)
//	varint (2) plain unsigned varints
//	rle    (3) runs of {length:uvarint, value:u8}
//
// Timestamps are near-monotone and sectors near-sequential, so delta
// collapses both to ~1 byte per record; ops/nodes/origins are long runs
// under RLE. The 8-byte payload alignment is relative to the file start,
// which a page-aligned mmap preserves — that is what lets the mapped
// source alias raw columns in place instead of decoding them.

package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"essio/internal/sim"
)

// FormatCol selects the columnar trace format ("col").
const FormatCol = "col"

// colMagic opens every columnar trace file. The first byte is
// non-printable so the format sniffer can never mistake columnar data
// for text, and no binary record starts a valid stream with it by
// construction of the check order (magic is tested first).
var colMagic = [8]byte{0xEC, 'E', 'S', 'S', 'C', 'O', 'L', '1'}

// Column encodings.
const (
	colEncRaw    = 0 // fixed-width little-endian
	colEncDelta  = 1 // zigzag varint deltas
	colEncVarint = 2 // plain unsigned varints
	colEncRLE    = 3 // {runlen uvarint, value byte} runs
)

const (
	// colColumns is the column count per block: times, sectors, counts,
	// pendings, ops, nodes, origins — in that order.
	colColumns = 7
	// colHeaderLen is the fixed block header size.
	colHeaderLen = 4 + colColumns*5
	// colAlign is the file-offset alignment of every column payload.
	colAlign = 8
	// colBlockLen is the writer's records-per-block target.
	colBlockLen = 4096
	// colMaxBlockLen bounds the decoder's per-block allocation against
	// corrupt counts.
	colMaxBlockLen = 1 << 20
	// colMaxValBytes is the longest encoding of one value in any
	// non-raw encoding (a 10-byte uvarint); RLE adds its value byte per
	// run, bounded by one per record.
	colMaxValBytes = 10
)

// colRawWidth is the fixed raw byte width of each column.
var colRawWidth = [colColumns]int{8, 4, 2, 2, 1, 1, 1}

// colPadding supplies alignment zeroes.
var colPadding [colAlign]byte

// zigzag maps signed deltas onto unsigned varint space, small-magnitude
// first.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeTimeCol encodes timestamps as zigzag deltas, raw when not
// strictly smaller.
func encodeTimeCol(dst []byte, ts []sim.Time) (byte, []byte) {
	var prev int64
	for _, t := range ts {
		dst = binary.AppendUvarint(dst, zigzag(int64(t)-prev))
		prev = int64(t)
	}
	if len(dst) >= 8*len(ts) {
		dst = dst[:0]
		for _, t := range ts {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(t))
		}
		return colEncRaw, dst
	}
	return colEncDelta, dst
}

// encodeSectorCol encodes sectors as zigzag deltas, raw when not
// strictly smaller.
func encodeSectorCol(dst []byte, secs []uint32) (byte, []byte) {
	var prev int64
	for _, s := range secs {
		dst = binary.AppendUvarint(dst, zigzag(int64(s)-prev))
		prev = int64(s)
	}
	if len(dst) >= 4*len(secs) {
		dst = dst[:0]
		for _, s := range secs {
			dst = binary.LittleEndian.AppendUint32(dst, s)
		}
		return colEncRaw, dst
	}
	return colEncDelta, dst
}

// uvarintLen is the encoded size of u in bytes.
func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// encodeU16Col encodes 16-bit values as plain varints or — when the
// column is dominated by runs of equal values, as queue depths are —
// as {runlen, value} pairs; raw little-endian when neither is strictly
// smaller. A first sizing pass picks the winner so only one encoding is
// materialized.
func encodeU16Col(dst []byte, vals []uint16) (byte, []byte) {
	varintLen, rleLen := 0, 0
	for i := 0; i < len(vals); {
		v := vals[i]
		j := i + 1
		for j < len(vals) && vals[j] == v {
			j++
		}
		rleLen += uvarintLen(uint64(j-i)) + 2
		varintLen += (j - i) * uvarintLen(uint64(v))
		i = j
	}
	switch {
	case rleLen < varintLen && rleLen < 2*len(vals):
		for i := 0; i < len(vals); {
			v := vals[i]
			j := i + 1
			for j < len(vals) && vals[j] == v {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i))
			dst = binary.LittleEndian.AppendUint16(dst, v)
			i = j
		}
		return colEncRLE, dst
	case varintLen < 2*len(vals):
		for _, v := range vals {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
		return colEncVarint, dst
	default:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint16(dst, v)
		}
		return colEncRaw, dst
	}
}

// encodeByteCol run-length encodes byte-wide values, raw when not
// strictly smaller.
func encodeByteCol[T ~uint8](dst []byte, vals []T) (byte, []byte) {
	for i := 0; i < len(vals); {
		v := vals[i]
		j := i + 1
		for j < len(vals) && vals[j] == v {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = append(dst, byte(v))
		i = j
	}
	if len(dst) >= len(vals) {
		dst = dst[:0]
		for _, v := range vals {
			dst = append(dst, byte(v))
		}
		return colEncRaw, dst
	}
	return colEncRLE, dst
}

var (
	errColTruncated = errors.New("trace: col: truncated column payload")
	errColTrailing  = errors.New("trace: col: trailing bytes in column payload")
	errColRawSize   = errors.New("trace: col: raw column size mismatch")
)

// decodeTimeCol fills out from a time column payload, rejecting negative
// timestamps like the row decoder.
func decodeTimeCol(enc byte, p []byte, out []sim.Time) error {
	switch enc {
	case colEncRaw:
		if len(p) != 8*len(out) {
			return errColRawSize
		}
		for i := range out {
			t := sim.Time(binary.LittleEndian.Uint64(p[8*i:]))
			if t < 0 {
				return fmt.Errorf("trace: col: negative timestamp %d", t)
			}
			out[i] = t
		}
		return nil
	case colEncDelta:
		var prev int64
		for i := range out {
			// One- and two-byte deltas dominate real traces; decode them
			// without the general Uvarint loop.
			var u uint64
			if len(p) >= 2 && p[0] < 0x80 {
				u, p = uint64(p[0]), p[1:]
			} else if len(p) >= 3 && p[1] < 0x80 {
				u, p = uint64(p[0]&0x7f)|uint64(p[1])<<7, p[2:]
			} else {
				v, n := binary.Uvarint(p)
				if n <= 0 {
					return errColTruncated
				}
				u, p = v, p[n:]
			}
			prev += unzigzag(u)
			if prev < 0 {
				return fmt.Errorf("trace: col: negative timestamp %d", prev)
			}
			out[i] = sim.Time(prev)
		}
		if len(p) != 0 {
			return errColTrailing
		}
		return nil
	}
	return fmt.Errorf("trace: col: bad time encoding %d", enc)
}

// decodeSectorCol fills out from a sector column payload.
func decodeSectorCol(enc byte, p []byte, out []uint32) error {
	switch enc {
	case colEncRaw:
		if len(p) != 4*len(out) {
			return errColRawSize
		}
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(p[4*i:])
		}
		return nil
	case colEncDelta:
		var prev int64
		for i := range out {
			var u uint64
			if len(p) >= 2 && p[0] < 0x80 {
				u, p = uint64(p[0]), p[1:]
			} else if len(p) >= 3 && p[1] < 0x80 {
				u, p = uint64(p[0]&0x7f)|uint64(p[1])<<7, p[2:]
			} else {
				v, n := binary.Uvarint(p)
				if n <= 0 {
					return errColTruncated
				}
				u, p = v, p[n:]
			}
			// prev stays in [0, 2^32) after each step, so the sum
			// cannot wrap int64 silently: any overflow lands negative
			// and is rejected here.
			prev += unzigzag(u)
			if prev < 0 || prev > math.MaxUint32 {
				return fmt.Errorf("trace: col: sector %d out of range", prev)
			}
			out[i] = uint32(prev)
		}
		if len(p) != 0 {
			return errColTrailing
		}
		return nil
	}
	return fmt.Errorf("trace: col: bad sector encoding %d", enc)
}

// decodeU16Col fills out from a 16-bit column payload.
func decodeU16Col(enc byte, p []byte, out []uint16) error {
	switch enc {
	case colEncRaw:
		if len(p) != 2*len(out) {
			return errColRawSize
		}
		for i := range out {
			out[i] = binary.LittleEndian.Uint16(p[2*i:])
		}
		return nil
	case colEncVarint:
		for i := range out {
			var u uint64
			if len(p) >= 2 && p[0] < 0x80 {
				u, p = uint64(p[0]), p[1:]
			} else if len(p) >= 3 && p[1] < 0x80 {
				u, p = uint64(p[0]&0x7f)|uint64(p[1])<<7, p[2:]
			} else {
				v, n := binary.Uvarint(p)
				if n <= 0 {
					return errColTruncated
				}
				u, p = v, p[n:]
			}
			if u > math.MaxUint16 {
				return fmt.Errorf("trace: col: value %d overflows 16 bits", u)
			}
			out[i] = uint16(u)
		}
		if len(p) != 0 {
			return errColTrailing
		}
		return nil
	case colEncRLE:
		i := 0
		for i < len(out) {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return errColTruncated
			}
			p = p[n:]
			if u == 0 || u > uint64(len(out)-i) {
				return fmt.Errorf("trace: col: run length %d exceeds block", u)
			}
			if len(p) < 2 {
				return errColTruncated
			}
			v := binary.LittleEndian.Uint16(p)
			p = p[2:]
			run := out[i : i+int(u)]
			for j := range run {
				run[j] = v
			}
			i += int(u)
		}
		if len(p) != 0 {
			return errColTrailing
		}
		return nil
	}
	return fmt.Errorf("trace: col: bad 16-bit encoding %d", enc)
}

// decodeByteCol fills out from a byte-wide column payload.
func decodeByteCol[T ~uint8](enc byte, p []byte, out []T) error {
	switch enc {
	case colEncRaw:
		if len(p) != len(out) {
			return errColRawSize
		}
		for i := range out {
			out[i] = T(p[i])
		}
		return nil
	case colEncRLE:
		i := 0
		for i < len(out) {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return errColTruncated
			}
			p = p[n:]
			if u == 0 || u > uint64(len(out)-i) {
				return fmt.Errorf("trace: col: run length %d exceeds block", u)
			}
			if len(p) == 0 {
				return errColTruncated
			}
			v := T(p[0])
			p = p[1:]
			for j := 0; j < int(u); j++ {
				out[i] = v
				i++
			}
		}
		if len(p) != 0 {
			return errColTrailing
		}
		return nil
	}
	return fmt.Errorf("trace: col: bad byte encoding %d", enc)
}

// validateOps rejects op flags outside the enum, matching the row
// decoder's per-record check.
func validateOps(ops []Op) error {
	for _, op := range ops {
		if op > Write {
			return fmt.Errorf("trace: col: invalid op %d", op)
		}
	}
	return nil
}

// validateOrigins rejects origin tags outside the enum.
func validateOrigins(origins []Origin) error {
	for _, o := range origins {
		if int(o) >= len(originNames) {
			return fmt.Errorf("trace: col: invalid origin %d", o)
		}
	}
	return nil
}

// validateTimes rejects negative timestamps in an aliased raw column.
func validateTimes(ts []sim.Time) error {
	for _, t := range ts {
		if t < 0 {
			return fmt.Errorf("trace: col: negative timestamp %d", t)
		}
	}
	return nil
}

// ColWriter encodes records to the columnar trace format. It is a Sink
// and a ColSink; records accumulate into colBlockLen-record
// blocks that are column-encoded on flush. Call Flush when the stream
// ends — an empty stream still writes the magic, the columnar encoding
// of an empty trace.
type ColWriter struct {
	bw     *bufio.Writer
	batch  ColBatch
	colbuf [colColumns][]byte
	off    int64
	magic  bool
	werr   error
}

// NewColWriter returns a streaming encoder for the columnar trace
// format.
func NewColWriter(w io.Writer) *ColWriter {
	return &ColWriter{bw: bufio.NewWriterSize(w, batchBytes)}
}

// write appends p to the stream, tracking the file offset for payload
// alignment and latching the first error.
func (w *ColWriter) write(p []byte) {
	if w.werr != nil {
		return
	}
	if _, err := w.bw.Write(p); err != nil {
		w.werr = fmt.Errorf("trace: col: write: %w", err)
		return
	}
	w.off += int64(len(p))
}

// pad advances the stream to the next colAlign boundary.
func (w *ColWriter) pad() {
	if rem := int(w.off % colAlign); rem != 0 {
		w.write(colPadding[:colAlign-rem])
	}
}

// writeMagic emits the file magic once.
func (w *ColWriter) writeMagic() {
	if !w.magic {
		w.magic = true
		w.write(colMagic[:])
	}
}

// flushBlock column-encodes and emits the pending block, if any.
func (w *ColWriter) flushBlock() error {
	if w.werr != nil {
		return w.werr
	}
	n := w.batch.Len()
	if n == 0 {
		return nil
	}
	w.writeMagic()
	b := &w.batch
	var enc [colColumns]byte
	enc[0], w.colbuf[0] = encodeTimeCol(w.colbuf[0][:0], b.Times)
	enc[1], w.colbuf[1] = encodeSectorCol(w.colbuf[1][:0], b.Sectors)
	enc[2], w.colbuf[2] = encodeU16Col(w.colbuf[2][:0], b.Counts)
	enc[3], w.colbuf[3] = encodeU16Col(w.colbuf[3][:0], b.Pendings)
	enc[4], w.colbuf[4] = encodeByteCol(w.colbuf[4][:0], b.Ops)
	enc[5], w.colbuf[5] = encodeByteCol(w.colbuf[5][:0], b.Nodes)
	enc[6], w.colbuf[6] = encodeByteCol(w.colbuf[6][:0], b.Origins)
	var hdr [colHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	for i := 0; i < colColumns; i++ {
		hdr[4+5*i] = enc[i]
		binary.LittleEndian.PutUint32(hdr[4+5*i+1:], uint32(len(w.colbuf[i])))
	}
	w.write(hdr[:])
	for i := range w.colbuf {
		w.pad()
		w.write(w.colbuf[i])
	}
	w.batch.Reset()
	return w.werr
}

// Add encodes one record.
func (w *ColWriter) Add(r Record) error {
	w.batch.AppendRecord(r)
	if w.batch.Len() >= colBlockLen {
		return w.flushBlock()
	}
	return w.werr
}

// AddCols encodes a columnar batch without materializing records.
func (w *ColWriter) AddCols(cols *ColBatch) error {
	for i, n := 0, cols.Len(); i < n; {
		room := colBlockLen - w.batch.Len()
		if room > n-i {
			room = n - i
		}
		part := cols.Slice(i, i+room)
		w.batch.AppendCols(&part)
		i += room
		if w.batch.Len() >= colBlockLen {
			if err := w.flushBlock(); err != nil {
				return err
			}
		}
	}
	return w.werr
}

// Flush encodes any pending partial block and flushes the underlying
// writer.
func (w *ColWriter) Flush() error {
	if err := w.flushBlock(); err != nil {
		return err
	}
	w.writeMagic()
	if w.werr != nil {
		return w.werr
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("trace: col: flush: %w", err)
	}
	return nil
}

// ColReader decodes the columnar trace format incrementally. It is a
// Source and a ColSource — columnar consumers get views of each decoded
// block without transposing back to records. An empty stream decodes as an empty trace, mirroring the
// binary reader.
type ColReader struct {
	br      *bufio.Reader
	batch   ColBatch
	pos     int
	view    ColBatch
	payload []byte
	off     int64
	started bool
	eof     bool
	err     error
}

// NewColReader returns a streaming decoder for the columnar trace
// format.
func NewColReader(r io.Reader) *ColReader {
	return &ColReader{br: bufio.NewReaderSize(r, batchBytes)}
}

// start consumes and checks the file magic.
func (d *ColReader) start() error {
	d.started = true
	var m [len(colMagic)]byte
	n, err := io.ReadFull(d.br, m[:])
	if err == io.EOF && n == 0 {
		d.eof = true // empty stream: empty trace
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("trace: col: short magic: %w", err)
	}
	if m != colMagic {
		return errors.New("trace: col: bad magic")
	}
	d.off = int64(len(m))
	return nil
}

// colSizeBound is the largest plausible payload size for a count-record
// column; anything larger is rejected before allocation.
func colSizeBound(i, count int) int {
	w := colRawWidth[i]
	if w < colMaxValBytes+1 {
		w = colMaxValBytes + 1
	}
	return w * count
}

// decodeBlock reads and decodes the next block into d.batch.
func (d *ColReader) decodeBlock() error {
	if d.err != nil {
		return d.err
	}
	if d.eof {
		return io.EOF
	}
	if !d.started {
		if err := d.start(); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			d.err = err
			return err
		}
	}
	var hdr [colHeaderLen]byte
	if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
		if err == io.EOF {
			d.eof = true
			return io.EOF
		}
		d.err = fmt.Errorf("trace: col: block header: %w", err)
		return d.err
	}
	d.off += colHeaderLen
	count := int(binary.LittleEndian.Uint32(hdr[0:]))
	if count <= 0 || count > colMaxBlockLen {
		d.err = fmt.Errorf("trace: col: bad block count %d", count)
		return d.err
	}
	d.batch.resize(count)
	for i := 0; i < colColumns; i++ {
		enc := hdr[4+5*i]
		size := int(binary.LittleEndian.Uint32(hdr[4+5*i+1:]))
		if size > colSizeBound(i, count) {
			d.err = fmt.Errorf("trace: col: column %d size %d exceeds bound", i, size)
			return d.err
		}
		if rem := int(d.off % colAlign); rem != 0 {
			if _, err := io.ReadFull(d.br, hdr[:colAlign-rem]); err != nil {
				d.err = fmt.Errorf("trace: col: column %d padding: %w", i, err)
				return d.err
			}
			d.off += int64(colAlign - rem)
		}
		if cap(d.payload) < size {
			d.payload = make([]byte, size)
		}
		p := d.payload[:size]
		if _, err := io.ReadFull(d.br, p); err != nil {
			d.err = fmt.Errorf("trace: col: column %d payload: %w", i, err)
			return d.err
		}
		d.off += int64(size)
		if err := decodeColInto(i, enc, p, &d.batch); err != nil {
			d.err = err
			return d.err
		}
	}
	d.pos = 0
	return nil
}

// decodeColInto dispatches a column payload to its typed decoder and
// validates enum columns.
func decodeColInto(i int, enc byte, p []byte, b *ColBatch) error {
	switch i {
	case 0:
		return decodeTimeCol(enc, p, b.Times)
	case 1:
		return decodeSectorCol(enc, p, b.Sectors)
	case 2:
		return decodeU16Col(enc, p, b.Counts)
	case 3:
		return decodeU16Col(enc, p, b.Pendings)
	case 4:
		if err := decodeByteCol(enc, p, b.Ops); err != nil {
			return err
		}
		return validateOps(b.Ops)
	case 5:
		return decodeByteCol(enc, p, b.Nodes)
	default:
		if err := decodeByteCol(enc, p, b.Origins); err != nil {
			return err
		}
		return validateOrigins(b.Origins)
	}
}

// NextCols returns a view of up to max records of the current block,
// valid until the next call.
func (d *ColReader) NextCols(max int) (*ColBatch, error) {
	if max <= 0 {
		max = DefaultBatchLen
	}
	if d.pos >= d.batch.Len() {
		if err := d.decodeBlock(); err != nil {
			return nil, err
		}
	}
	j := d.pos + max
	if j > d.batch.Len() {
		j = d.batch.Len()
	}
	d.view = d.batch.Slice(d.pos, j)
	d.pos = j
	return &d.view, nil
}

// Next decodes the next record, returning io.EOF at a clean end of
// stream.
func (d *ColReader) Next() (Record, error) {
	if d.pos >= d.batch.Len() {
		if err := d.decodeBlock(); err != nil {
			return Record{}, err
		}
	}
	r := d.batch.Record(d.pos)
	d.pos++
	return r, nil
}

// WriteCol encodes a whole trace in the columnar format; the columnar
// sibling of WriteAll.
func WriteCol(w io.Writer, recs []Record) error {
	cw := NewColWriter(w)
	if _, err := Copy(cw, SliceSource(recs)); err != nil {
		return err
	}
	return cw.Flush()
}

// ReadCol decodes a whole columnar trace; the columnar sibling of
// ReadAll.
func ReadCol(r io.Reader) ([]Record, error) {
	return Collect(NewColReader(r))
}
