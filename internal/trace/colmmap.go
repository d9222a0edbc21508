// Memory-mapped columnar source: decodes columnar blocks straight out
// of a byte view of the file. Raw-encoded columns are not decoded at
// all — when the host is little-endian and the payload is naturally
// aligned (the writer pads every payload to an 8-byte file offset, and
// an mmap base is page-aligned, so alignment holds by construction) the
// column view aliases the mapped bytes in place. Compressed columns
// decode into a reused scratch batch. Either way NextCols hands the
// accumulators dense column views with no per-record work.

package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"

	"encoding/binary"

	"essio/internal/sim"
)

// hostLittleEndian gates the unsafe raw-column aliasing: the on-disk
// layout is little-endian, so on any other host raw columns take the
// decode-copy path instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedTo reports whether p's backing array is aligned for a load of
// width bytes.
func alignedTo(p []byte, width int) bool {
	return uintptr(unsafe.Pointer(&p[0]))%uintptr(width) == 0
}

// mappedColSource decodes columnar blocks from an in-memory byte image,
// aliasing raw columns zero-copy.
type mappedColSource struct {
	data []byte
	off  int
	own  ColBatch // decode buffers for compressed columns
	cur  ColBatch // current block: views of data (raw) or own (decoded)
	pos  int
	view ColBatch
	err  error
	eof  bool
}

// newMappedColSource builds a columnar source over a complete file
// image, verifying the magic up front. An empty image is an empty
// trace.
func newMappedColSource(data []byte) (*mappedColSource, error) {
	if len(data) == 0 {
		return &mappedColSource{eof: true}, nil
	}
	if len(data) < len(colMagic) || [len(colMagic)]byte(data[:len(colMagic)]) != colMagic {
		return nil, errors.New("trace: col: bad magic")
	}
	return &mappedColSource{data: data, off: len(colMagic)}, nil
}

// decodeBlock parses the next block, aliasing aligned raw columns and
// decoding the rest into m.own.
func (m *mappedColSource) decodeBlock() error {
	if m.err != nil {
		return m.err
	}
	if m.eof || m.off >= len(m.data) {
		m.eof = true
		return io.EOF
	}
	if len(m.data)-m.off < colHeaderLen {
		m.err = errors.New("trace: col: truncated block header")
		return m.err
	}
	hdr := m.data[m.off : m.off+colHeaderLen]
	off := m.off + colHeaderLen
	count := int(binary.LittleEndian.Uint32(hdr[0:]))
	if count <= 0 || count > colMaxBlockLen {
		m.err = fmt.Errorf("trace: col: bad block count %d", count)
		return m.err
	}
	m.own.resize(count)
	for i := 0; i < colColumns; i++ {
		enc := hdr[4+5*i]
		size := int(binary.LittleEndian.Uint32(hdr[4+5*i+1:]))
		if size > colSizeBound(i, count) {
			m.err = fmt.Errorf("trace: col: column %d size %d exceeds bound", i, size)
			return m.err
		}
		if rem := off % colAlign; rem != 0 {
			off += colAlign - rem
		}
		if off > len(m.data) || len(m.data)-off < size {
			m.err = errColTruncated
			return m.err
		}
		p := m.data[off : off+size]
		off += size
		if err := m.loadCol(i, enc, p, count); err != nil {
			m.err = err
			return m.err
		}
	}
	m.off = off
	m.pos = 0
	return nil
}

// loadCol installs column i of the current block into m.cur, aliasing p
// when the raw fast path applies.
func (m *mappedColSource) loadCol(i int, enc byte, p []byte, count int) error {
	raw := enc == colEncRaw && len(p) == colRawWidth[i]*count && hostLittleEndian
	switch i {
	case 0:
		if raw && alignedTo(p, 8) {
			m.cur.Times = unsafe.Slice((*sim.Time)(unsafe.Pointer(&p[0])), count)
			return validateTimes(m.cur.Times)
		}
		if err := decodeTimeCol(enc, p, m.own.Times); err != nil {
			return err
		}
		m.cur.Times = m.own.Times
	case 1:
		if raw && alignedTo(p, 4) {
			m.cur.Sectors = unsafe.Slice((*uint32)(unsafe.Pointer(&p[0])), count)
			return nil
		}
		if err := decodeSectorCol(enc, p, m.own.Sectors); err != nil {
			return err
		}
		m.cur.Sectors = m.own.Sectors
	case 2:
		if raw && alignedTo(p, 2) {
			m.cur.Counts = unsafe.Slice((*uint16)(unsafe.Pointer(&p[0])), count)
			return nil
		}
		if err := decodeU16Col(enc, p, m.own.Counts); err != nil {
			return err
		}
		m.cur.Counts = m.own.Counts
	case 3:
		if raw && alignedTo(p, 2) {
			m.cur.Pendings = unsafe.Slice((*uint16)(unsafe.Pointer(&p[0])), count)
			return nil
		}
		if err := decodeU16Col(enc, p, m.own.Pendings); err != nil {
			return err
		}
		m.cur.Pendings = m.own.Pendings
	case 4:
		if enc == colEncRaw && len(p) == count {
			m.cur.Ops = unsafe.Slice((*Op)(unsafe.Pointer(&p[0])), count)
		} else {
			if err := decodeByteCol(enc, p, m.own.Ops); err != nil {
				return err
			}
			m.cur.Ops = m.own.Ops
		}
		return validateOps(m.cur.Ops)
	case 5:
		if enc == colEncRaw && len(p) == count {
			// []byte and []uint8 are the same type: a plain reslice,
			// no unsafe needed.
			m.cur.Nodes = p[:count:count]
			return nil
		}
		if err := decodeByteCol(enc, p, m.own.Nodes); err != nil {
			return err
		}
		m.cur.Nodes = m.own.Nodes
	default:
		if enc == colEncRaw && len(p) == count {
			m.cur.Origins = unsafe.Slice((*Origin)(unsafe.Pointer(&p[0])), count)
		} else {
			if err := decodeByteCol(enc, p, m.own.Origins); err != nil {
				return err
			}
			m.cur.Origins = m.own.Origins
		}
		return validateOrigins(m.cur.Origins)
	}
	return nil
}

// NextCols returns a view of up to max records of the current block,
// valid until the next call.
func (m *mappedColSource) NextCols(max int) (*ColBatch, error) {
	if max <= 0 {
		max = DefaultBatchLen
	}
	if m.pos >= m.cur.Len() {
		if err := m.decodeBlock(); err != nil {
			return nil, err
		}
	}
	j := m.pos + max
	if j > m.cur.Len() {
		j = m.cur.Len()
	}
	m.view = m.cur.Slice(m.pos, j)
	m.pos = j
	return &m.view, nil
}

// Next materializes the next record, returning io.EOF at a clean end of
// stream.
func (m *mappedColSource) Next() (Record, error) {
	if m.pos >= m.cur.Len() {
		if err := m.decodeBlock(); err != nil {
			return Record{}, err
		}
	}
	r := m.cur.Record(m.pos)
	m.pos++
	return r, nil
}

// newColMmapFile maps f and builds a zero-copy columnar source over the
// mapping, returning the unmap function the owner must call on close.
func newColMmapFile(f *os.File) (*mappedColSource, func() error, error) {
	data, unmap, err := mmapFile(f)
	if err != nil {
		return nil, nil, err
	}
	src, err := newMappedColSource(data)
	if err != nil {
		unmap()
		return nil, nil, err
	}
	return src, unmap, nil
}

// mmapSizeOK guards the int conversion of a file size.
func mmapSizeOK(size int64) bool {
	return size >= 0 && size <= math.MaxInt && int64(int(size)) == size
}
