// Package disk models the node-local IDE disk drive of the Beowulf
// prototype: 500 MB of 512-byte sectors behind a single head assembly, with
// seek, rotational, and media-transfer timing plus per-request controller
// overhead (IDE programmed I/O on a 486 was CPU-driven and far from free).
//
// The model is deliberately mechanical rather than stochastic: rotational
// position is derived from the virtual clock and the spindle speed, and seek
// time from the cylinder distance, so identical request sequences always
// produce identical service times.
package disk

import (
	"bytes"
	"fmt"
	"math"

	"essio/internal/obs"
	"essio/internal/sim"
)

// SectorSize is the sector size in bytes.
const SectorSize = 512

// The sector store keeps 4 KiB pages of pageSectors sectors.
const (
	pageSectors = 8
	pageSize    = pageSectors * SectorSize
)

// zeroPage is what an absent page holds; it is never written.
var zeroPage [pageSize]byte

// Params describes the drive's geometry and timing.
type Params struct {
	// Sectors is the total logical capacity in sectors.
	Sectors uint32
	// SectorsPerTrack and Heads define the logical geometry used for
	// seek/rotation computations.
	SectorsPerTrack int
	Heads           int
	// RPM is the spindle speed.
	RPM float64
	// TrackSeek is the single-cylinder seek time; FullSeek is the
	// full-stroke seek time. Intermediate distances interpolate with a
	// square-root curve, the usual first-order arm model.
	TrackSeek sim.Duration
	FullSeek  sim.Duration
	// TransferRate is the media rate in bytes per second.
	TransferRate float64
	// Overhead is fixed per-request controller + PIO setup cost.
	Overhead sim.Duration
}

// DefaultParams returns parameters for the 500 MB IDE drives of the Beowulf
// prototype nodes (early-1990s 3.5" IDE class: 4500 RPM, ~2 MB/s media
// rate, ~12 ms average seek).
func DefaultParams() Params {
	return Params{
		Sectors:         1024000, // 500 MB
		SectorsPerTrack: 63,
		Heads:           16,
		RPM:             4500,
		TrackSeek:       3 * sim.Millisecond,
		FullSeek:        25 * sim.Millisecond,
		TransferRate:    2.0e6,
		Overhead:        800 * sim.Microsecond,
	}
}

// Stats accumulates operation counts and timing.
type Stats struct {
	Reads          uint64
	Writes         uint64
	SectorsRead    uint64
	SectorsWritten uint64
	BusyTime       sim.Duration
	SeekTime       sim.Duration
	RotTime        sim.Duration
	TransferTime   sim.Duration
	MediaErrors    uint64
}

// Disk is one simulated drive. Timing and data are separate concerns: the
// driver asks for a service time and schedules completion itself, while
// ReadAt/WriteAt move bytes instantaneously. Sector contents are stored
// sparsely, in 4 KiB pages of eight sectors keyed by sector/8. An absent
// page reads as zeros, so a page is created only by the first write of
// non-zero bytes into it: never-written sectors, and zeros written where
// nothing was (mkfs's inode tables), cost no memory.
type Disk struct {
	e       *sim.Engine
	p       Params
	headCyl int
	pages   map[uint32]*[pageSize]byte // sector/pageSectors -> page
	bad     []badRange
	stats   Stats
	om      diskMetrics
}

// diskMetrics holds the disk's observability handles; the zero value
// (nil handles) records nothing.
type diskMetrics struct {
	reads, writes *obs.Counter
	sectors       *obs.Counter
	mediaErrs     *obs.Counter
	seekCylinders *obs.Histogram
	serviceMicros *obs.Histogram
}

// Instrument registers the disk's metrics in reg: operation counters
// under disk/, plus (at Full) seek-distance and service-time
// distributions — the arm-movement view behind the paper's access
// locality findings.
func (d *Disk) Instrument(reg *obs.Registry) {
	d.om = diskMetrics{
		reads:         reg.Counter("disk/reads"),
		writes:        reg.Counter("disk/writes"),
		sectors:       reg.Counter("disk/sectors"),
		mediaErrs:     reg.Counter("disk/media_errors"),
		seekCylinders: reg.Histogram("disk/seek_cylinders", obs.ExpBuckets(1, 2, 11)),
		serviceMicros: reg.Histogram("disk/service_us", obs.ExpBuckets(256, 2, 10)),
	}
}

// badRange is an injected media defect.
type badRange struct {
	start uint32
	count uint32
}

// New returns a disk bound to engine e.
func New(e *sim.Engine, p Params) *Disk {
	if p.Sectors == 0 || p.SectorsPerTrack <= 0 || p.Heads <= 0 {
		panic("disk: invalid geometry")
	}
	if p.TransferRate <= 0 || p.RPM <= 0 {
		panic("disk: invalid rates")
	}
	return &Disk{e: e, p: p, pages: make(map[uint32]*[pageSize]byte)}
}

// Params returns the drive parameters.
func (d *Disk) Params() Params { return d.p }

// MarkBad injects a media defect: any request overlapping [sector,
// sector+count) fails with a media error (failure-injection testing).
func (d *Disk) MarkBad(sector, count uint32) {
	d.bad = append(d.bad, badRange{start: sector, count: count})
}

// ClearBad removes all injected defects.
func (d *Disk) ClearBad() { d.bad = nil }

// badOverlap reports whether a request overlaps an injected defect.
func (d *Disk) badOverlap(sector uint32, count int) bool {
	end := sector + uint32(count)
	for _, b := range d.bad {
		if sector < b.start+b.count && b.start < end {
			return true
		}
	}
	return false
}

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// Sectors reports the drive capacity in sectors.
func (d *Disk) Sectors() uint32 { return d.p.Sectors }

// cylinderOf maps a logical sector to its cylinder.
func (d *Disk) cylinderOf(sector uint32) int {
	perCyl := d.p.SectorsPerTrack * d.p.Heads
	return int(sector) / perCyl
}

// rotation returns the spindle period.
func (d *Disk) rotation() sim.Duration {
	return sim.DurationOf(60.0 / d.p.RPM)
}

// seekTime returns the arm movement time for a cylinder distance.
func (d *Disk) seekTime(dist int) sim.Duration {
	if dist <= 0 {
		return 0
	}
	maxCyl := int(d.p.Sectors)/(d.p.SectorsPerTrack*d.p.Heads) - 1
	if maxCyl < 1 {
		maxCyl = 1
	}
	frac := math.Sqrt(float64(dist) / float64(maxCyl))
	return d.p.TrackSeek + sim.Duration(frac*float64(d.p.FullSeek-d.p.TrackSeek))
}

// rotationalDelay returns the wait for the target sector to pass under the
// head, given the head arrives at arrival.
func (d *Disk) rotationalDelay(arrival sim.Time, sector uint32) sim.Duration {
	rot := d.rotation()
	if rot <= 0 {
		return 0
	}
	// Angular position of the spindle at arrival, in sector units of the
	// target track.
	spt := uint32(d.p.SectorsPerTrack)
	cur := (uint64(arrival) % uint64(rot)) * uint64(spt) / uint64(rot)
	want := uint64(sector % spt)
	delta := (want + uint64(spt) - cur) % uint64(spt)
	return sim.Duration(delta * uint64(rot) / uint64(spt))
}

// transferTime returns the media transfer time for count sectors.
func (d *Disk) transferTime(count int) sim.Duration {
	return sim.DurationOf(float64(count*SectorSize) / d.p.TransferRate)
}

// Detail decomposes one request's service time into its mechanical
// phases: controller overhead, seek, rotational delay, and media
// transfer. Positioning (overhead+seek+rot) plus Xfer is the total.
type Detail struct {
	Overhead, Seek, Rot, Xfer sim.Duration
}

// Total is the full service time the decomposition sums to.
func (dt Detail) Total() sim.Duration { return dt.Overhead + dt.Seek + dt.Rot + dt.Xfer }

// Pos is the positioning portion: everything before the transfer starts.
func (dt Detail) Pos() sim.Duration { return dt.Overhead + dt.Seek + dt.Rot }

// Service computes the full service time for a request starting now,
// advances the head model, and accounts statistics. The caller (the device
// driver) is responsible for serializing requests and scheduling the
// completion event.
func (d *Disk) Service(sector uint32, count int, write bool) (sim.Duration, error) {
	dt, err := d.ServiceDetail(sector, count, write)
	return dt.Total(), err
}

// ServiceDetail is Service returning the per-phase decomposition, which
// the per-request tracing layer journals as positioning and transfer
// spans.
func (d *Disk) ServiceDetail(sector uint32, count int, write bool) (Detail, error) {
	if count <= 0 {
		return Detail{}, fmt.Errorf("disk: non-positive sector count %d", count)
	}
	if sector+uint32(count) > d.p.Sectors || sector+uint32(count) < sector {
		return Detail{}, fmt.Errorf("disk: request [%d,+%d) beyond capacity %d", sector, count, d.p.Sectors)
	}
	if d.badOverlap(sector, count) {
		d.stats.MediaErrors++
		d.om.mediaErrs.Inc()
		return Detail{}, fmt.Errorf("disk: media error at sector %d (+%d)", sector, count)
	}
	cyl := d.cylinderOf(sector)
	dist := abs(cyl - d.headCyl)
	seek := d.seekTime(dist)
	d.headCyl = d.cylinderOf(sector + uint32(count) - 1)
	rotAt := d.e.Now().Add(d.p.Overhead + seek)
	rot := d.rotationalDelay(rotAt, sector)
	xfer := d.transferTime(count)
	total := d.p.Overhead + seek + rot + xfer

	if write {
		d.stats.Writes++
		d.stats.SectorsWritten += uint64(count)
		d.om.writes.Inc()
	} else {
		d.stats.Reads++
		d.stats.SectorsRead += uint64(count)
		d.om.reads.Inc()
	}
	d.stats.BusyTime += total
	d.stats.SeekTime += seek
	d.stats.RotTime += rot
	d.stats.TransferTime += xfer
	d.om.sectors.Add(uint64(count))
	d.om.seekCylinders.Observe(int64(dist))
	d.om.serviceMicros.Observe(int64(total))
	return Detail{Overhead: d.p.Overhead, Seek: seek, Rot: rot, Xfer: xfer}, nil
}

// ReadAt copies stored sector contents into buf, whose length must be a
// multiple of the sector size. Unwritten sectors read as zeros.
func (d *Disk) ReadAt(sector uint32, buf []byte) error {
	if len(buf)%SectorSize != 0 {
		return fmt.Errorf("disk: read buffer %d not sector-aligned", len(buf))
	}
	n := uint32(len(buf) / SectorSize)
	if sector+n > d.p.Sectors || sector+n < sector {
		return fmt.Errorf("disk: read [%d,+%d) beyond capacity", sector, n)
	}
	off := int(sector%pageSectors) * SectorSize
	for pg := sector / pageSectors; len(buf) > 0; pg++ {
		run := buf[:min(len(buf), pageSize-off)]
		if page := d.pages[pg]; page != nil {
			copy(run, page[off:])
		} else {
			clear(run)
		}
		buf = buf[len(run):]
		off = 0
	}
	return nil
}

// WriteAt stores buf at the given sector; buf must be sector-aligned.
func (d *Disk) WriteAt(sector uint32, buf []byte) error {
	if len(buf)%SectorSize != 0 {
		return fmt.Errorf("disk: write buffer %d not sector-aligned", len(buf))
	}
	n := uint32(len(buf) / SectorSize)
	if sector+n > d.p.Sectors || sector+n < sector {
		return fmt.Errorf("disk: write [%d,+%d) beyond capacity", sector, n)
	}
	off := int(sector%pageSectors) * SectorSize
	for pg := sector / pageSectors; len(buf) > 0; pg++ {
		run := buf[:min(len(buf), pageSize-off)]
		page := d.pages[pg]
		if page == nil && !bytes.Equal(run, zeroPage[:len(run)]) {
			page = new([pageSize]byte)
			d.pages[pg] = page
		}
		if page != nil {
			copy(page[off:], run)
		}
		buf = buf[len(run):]
		off = 0
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
