// Package trace defines the I/O trace record produced by the instrumented
// disk device driver, along with in-kernel ring buffering and a compact
// binary on-disk format.
//
// The record layout follows Berry & El-Ghazawi (IPPS 1996): every read or
// write request sent to the disk generates a trace entry consisting of a
// timestamp, the disk sector number requested, a flag indicating a read or a
// write, and a count of the remaining I/O requests to be processed. We
// additionally record the request length in sectors (needed to reproduce the
// request-size figures), the node the request was observed on, and a
// ground-truth origin tag that the analysis code can use to validate the
// paper's *inferred* classification of request sizes.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"essio/internal/sim"
)

// Op distinguishes read requests from write requests.
type Op uint8

const (
	// Read is a disk read request.
	Read Op = 0
	// Write is a disk write request.
	Write Op = 1
)

func (o Op) String() string {
	if o == Read {
		return "R"
	}
	return "W"
}

// Origin is a ground-truth tag describing which kernel mechanism generated a
// request. The original study could only infer these categories from request
// sizes; the simulator records them so the inference can be validated.
type Origin uint8

const (
	// OriginUnknown marks records whose source was not tagged.
	OriginUnknown Origin = iota
	// OriginData is explicit file data I/O on behalf of an application.
	OriginData
	// OriginMeta is filesystem metadata I/O (superblock, bitmaps, inodes,
	// directories, indirect blocks).
	OriginMeta
	// OriginPaging is demand paging of program text/data from its file.
	OriginPaging
	// OriginSwap is anonymous-page traffic to and from the swap partition.
	OriginSwap
	// OriginLog is system logging activity (syslogd/klogd and kernel
	// bookkeeping writes).
	OriginLog
	// OriginTrace is the instrumentation's own trace-flush traffic.
	OriginTrace
)

var originNames = [...]string{"unknown", "data", "meta", "paging", "swap", "log", "trace"}

func (o Origin) String() string {
	if int(o) < len(originNames) {
		return originNames[o]
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// SectorSize is the physical sector size in bytes of the simulated IDE disk.
const SectorSize = 512

// Record is one instrumented driver observation of a physical disk request.
type Record struct {
	// Time is the virtual timestamp at which the request was handed to
	// the disk.
	Time sim.Time
	// Sector is the starting disk sector of the request.
	Sector uint32
	// Count is the length of the request in sectors.
	Count uint16
	// Pending is the number of further I/O requests waiting in the
	// driver queue when this one was issued.
	Pending uint16
	// Op is the read/write flag.
	Op Op
	// Node identifies the cluster node whose disk observed the request.
	Node uint8
	// Origin is the ground-truth source tag (see Origin).
	Origin Origin
}

// Bytes reports the request length in bytes.
func (r Record) Bytes() int { return int(r.Count) * SectorSize }

// KB reports the request length in whole kilobytes (rounding up), the unit
// the paper's figures use.
func (r Record) KB() int { return (r.Bytes() + 1023) / 1024 }

// End reports the first sector past the request.
func (r Record) End() uint32 { return r.Sector + uint32(r.Count) }

func (r Record) String() string {
	return fmt.Sprintf("%.6f %s sector=%d count=%d pend=%d node=%d %s",
		r.Time.Seconds(), r.Op, r.Sector, r.Count, r.Pending, r.Node, r.Origin)
}

// recordSize is the fixed encoded size of a Record in bytes.
const recordSize = 8 + 4 + 2 + 2 + 1 + 1 + 1 + 1 // time, sector, count, pending, op, node, origin, pad

// Marshal encodes r into buf, which must be at least RecordSize bytes, and
// returns the number of bytes written.
func (r Record) Marshal(buf []byte) int {
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.Time))
	binary.LittleEndian.PutUint32(buf[8:], r.Sector)
	binary.LittleEndian.PutUint16(buf[12:], r.Count)
	binary.LittleEndian.PutUint16(buf[14:], r.Pending)
	buf[16] = byte(r.Op)
	buf[17] = r.Node
	buf[18] = byte(r.Origin)
	buf[19] = 0
	return recordSize
}

// RecordSize is the fixed encoded record length in bytes.
const RecordSize = recordSize

// UnmarshalRecord decodes one record from buf, rejecting encodings no
// Marshal call can produce (negative timestamp, unknown op or origin) so
// corrupted or hostile trace files surface as errors instead of leaking
// impossible records into analysis.
func UnmarshalRecord(buf []byte) (Record, error) {
	if len(buf) < recordSize {
		return Record{}, fmt.Errorf("trace: short record: %d bytes", len(buf))
	}
	r := Record{
		Time:    sim.Time(binary.LittleEndian.Uint64(buf[0:])),
		Sector:  binary.LittleEndian.Uint32(buf[8:]),
		Count:   binary.LittleEndian.Uint16(buf[12:]),
		Pending: binary.LittleEndian.Uint16(buf[14:]),
		Op:      Op(buf[16]),
		Node:    buf[17],
		Origin:  Origin(buf[18]),
	}
	if r.Time < 0 {
		return Record{}, fmt.Errorf("trace: negative timestamp %d", int64(r.Time))
	}
	if r.Op > Write {
		return Record{}, fmt.Errorf("trace: invalid op %d", uint8(r.Op))
	}
	if int(r.Origin) >= len(originNames) {
		return Record{}, fmt.Errorf("trace: invalid origin %d", uint8(r.Origin))
	}
	return r, nil
}

// WriteAll encodes records to w in the binary trace format. It is the
// batch form of the streaming Writer sink and encodes whole 64 KiB
// buffers per write call.
func WriteAll(w io.Writer, recs []Record) error {
	tw := NewWriter(w)
	if _, err := Copy(tw, SliceSource(recs)); err != nil {
		return err
	}
	return tw.Flush()
}

// ReadAll decodes all records from r until EOF. It is the batch form of
// the streaming Reader source.
func ReadAll(r io.Reader) ([]Record, error) {
	return Collect(NewReader(r))
}

// Merge combines per-node traces into one slice sorted by (Time, Node,
// Sector), stable with respect to input order of equal keys. It is the
// batch form of the streaming k-way MergeSlices/MergeSources merge.
func Merge(traces ...[]Record) []Record {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := &Collector{Recs: make([]Record, 0, total)}
	// Slice sources never fail, so the merge cannot either.
	if _, err := Copy(out, MergeSlices(traces...)); err != nil {
		panic("trace: merge: " + err.Error())
	}
	return out.Recs
}

// Ring is a bounded in-kernel trace buffer, the analogue of the kernel
// message facility the study buffered trace entries through. When the ring
// overflows, the oldest unconsumed records are discarded and counted.
type Ring struct {
	buf     []Record
	start   int // index of oldest record
	n       int // number of stored records
	dropped uint64
	total   uint64
}

// NewRing returns a ring holding at most capacity records.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("trace: ring capacity must be positive")
	}
	return &Ring{buf: make([]Record, capacity)}
}

// Append stores r, evicting the oldest record if the ring is full.
func (g *Ring) Append(r Record) {
	g.total++
	if g.n == len(g.buf) {
		g.start = (g.start + 1) % len(g.buf)
		g.n--
		g.dropped++
	}
	g.buf[(g.start+g.n)%len(g.buf)] = r
	g.n++
}

// Len reports the number of unconsumed records.
func (g *Ring) Len() int { return g.n }

// Dropped reports how many records were lost to overflow.
func (g *Ring) Dropped() uint64 { return g.dropped }

// Total reports how many records were ever appended.
func (g *Ring) Total() uint64 { return g.total }

// Drain removes and returns up to max records in arrival order. max <= 0
// drains everything.
func (g *Ring) Drain(max int) []Record {
	if max <= 0 || max > g.n {
		max = g.n
	}
	out := make([]Record, max)
	for i := 0; i < max; i++ {
		out[i] = g.buf[(g.start+i)%len(g.buf)]
	}
	g.start = (g.start + max) % len(g.buf)
	g.n -= max
	return out
}
