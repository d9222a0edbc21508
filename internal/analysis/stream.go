// Streaming accumulators: every metric of the package rebuilt as an
// incremental trace.ColSink, so a single pass over a trace Source — a
// file reader, a k-way node merge — computes any combination of metrics
// in bounded memory. Each accumulator has one fold, AddCols (cols.go).
// The slice-based functions of analysis.go are thin wrappers over these.
//
// Every accumulator also has an exact Merge method folding another
// accumulator of the same kind into it, which is what lets a multi-core
// driver shard one trace across workers — per-node shards or
// time-contiguous chunks — and recombine per-worker accumulator sets into
// results identical to a single sequential pass. Merge methods whose
// metric is order-sensitive (RateAcc binning, InterAccessAcc gaps,
// SummaryAcc span) document which sharding they are exact under.

package analysis

import (
	"essio/internal/sim"
	"essio/internal/trace"
)

// SummaryAcc incrementally builds a Table 1 Summary. It also tracks the
// observed time span so callers analyzing a bare trace file can use
// Span() when no external duration is known.
type SummaryAcc struct {
	s           Summary
	first, last sim.Time
	any         bool
}

// NewSummaryAcc returns an accumulator for a Table 1 row over the given
// observation duration and node count.
func NewSummaryAcc(label string, duration sim.Duration, nodes int) *SummaryAcc {
	return &SummaryAcc{s: Summary{Label: label, Nodes: nodes, Duration: duration}}
}

// Merge folds another summary accumulator into a. Counts add and the
// observed span extends to cover both, so the merge is exact under any
// partition of the trace.
func (a *SummaryAcc) Merge(b *SummaryAcc) {
	a.s.Reads += b.s.Reads
	a.s.Writes += b.s.Writes
	if b.any {
		if !a.any || b.first < a.first {
			a.first = b.first
		}
		if !a.any || b.last > a.last {
			a.last = b.last
		}
		a.any = true
	}
}

// Span reports the observed time span between the earliest and latest
// record seen.
func (a *SummaryAcc) Span() sim.Duration { return a.last.Sub(a.first) }

// SetDuration overrides the observation duration before Summary is read.
func (a *SummaryAcc) SetDuration(d sim.Duration) { a.s.Duration = d }

// Summary finalizes the row.
func (a *SummaryAcc) Summary() Summary {
	s := a.s
	total := s.Reads + s.Writes
	if total > 0 {
		s.ReadPct = 100 * float64(s.Reads) / float64(total)
		s.WritePct = 100 * float64(s.Writes) / float64(total)
	}
	if s.Nodes > 0 {
		s.TotalPerDisk = float64(total) / float64(s.Nodes)
		if s.Duration > 0 {
			s.ReqPerSec = s.TotalPerDisk / s.Duration.Seconds()
		}
	}
	return s
}

// SizeHistAcc incrementally counts requests per KB size class.
type SizeHistAcc struct {
	h map[int]int
}

// NewSizeHistAcc returns an empty size histogram accumulator.
func NewSizeHistAcc() *SizeHistAcc { return &SizeHistAcc{h: make(map[int]int)} }

// Merge folds another histogram into a; exact under any partition.
func (a *SizeHistAcc) Merge(b *SizeHistAcc) {
	for kb, c := range b.h {
		a.h[kb] += c
	}
}

// Histogram returns the counts per KB class.
func (a *SizeHistAcc) Histogram() map[int]int { return a.h }

// SizeClassAcc incrementally buckets requests into the paper's size
// categories.
type SizeClassAcc struct {
	c SizeClasses
}

// NewSizeClassAcc returns an empty size-class accumulator.
func NewSizeClassAcc() *SizeClassAcc { return &SizeClassAcc{} }

// Merge folds another size-class accumulator into a; exact under any
// partition.
func (a *SizeClassAcc) Merge(b *SizeClassAcc) {
	a.c.Block1K += b.c.Block1K
	a.c.Page4K += b.c.Page4K
	a.c.Large += b.c.Large
	a.c.Other += b.c.Other
}

// Classes returns the size-class split.
func (a *SizeClassAcc) Classes() SizeClasses { return a.c }

// OriginAcc incrementally counts requests per ground-truth origin.
type OriginAcc struct {
	m map[trace.Origin]int
}

// NewOriginAcc returns an empty origin accumulator.
func NewOriginAcc() *OriginAcc { return &OriginAcc{m: make(map[trace.Origin]int)} }

// Merge folds another origin accumulator into a; exact under any
// partition.
func (a *OriginAcc) Merge(b *OriginAcc) {
	for o, c := range b.m {
		a.m[o] += c
	}
}

// Breakdown returns the counts per origin.
func (a *OriginAcc) Breakdown() map[trace.Origin]int { return a.m }

// BandsAcc incrementally buckets requests into fixed-width sector bands
// (Figure 7).
type BandsAcc struct {
	bandSectors uint32
	bands       []Band
	total       int
}

// NewBandsAcc returns a spatial-band accumulator over a disk of
// diskSectors sectors split into bandSectors-wide bands.
func NewBandsAcc(bandSectors, diskSectors uint32) *BandsAcc {
	if bandSectors == 0 {
		panic("analysis: zero band width")
	}
	nb := int((diskSectors + bandSectors - 1) / bandSectors)
	bands := make([]Band, nb)
	for i := range bands {
		bands[i].Lo = uint32(i) * bandSectors
		bands[i].Hi = bands[i].Lo + bandSectors
	}
	return &BandsAcc{bandSectors: bandSectors, bands: bands}
}

// Merge folds another band accumulator into a; both must share the band
// geometry (same width and disk size). Exact under any partition.
func (a *BandsAcc) Merge(b *BandsAcc) {
	if a.bandSectors != b.bandSectors || len(a.bands) != len(b.bands) {
		panic("analysis: merge of band accumulators with different geometry")
	}
	for i := range b.bands {
		a.bands[i].Count += b.bands[i].Count
	}
	a.total += b.total
}

// Bands finalizes the percentages and returns the band distribution.
func (a *BandsAcc) Bands() []Band {
	out := append([]Band(nil), a.bands...)
	if a.total > 0 {
		for i := range out {
			out[i].Pct = 100 * float64(out[i].Count) / float64(a.total)
		}
	}
	return out
}

// HeatAcc incrementally counts accesses per starting sector (Figure 8).
type HeatAcc struct {
	counts map[uint32]int
}

// NewHeatAcc returns an empty temporal-heat accumulator.
func NewHeatAcc() *HeatAcc { return &HeatAcc{counts: make(map[uint32]int)} }

// Merge folds another heat accumulator into a; exact under any partition.
func (a *HeatAcc) Merge(b *HeatAcc) {
	for sec, c := range b.counts {
		a.counts[sec] += c
	}
}

// Heat finalizes per-sector access frequency averaged over duration.
func (a *HeatAcc) Heat(duration sim.Duration) []Heat {
	return heatFromCounts(a.counts, duration)
}

// RateAcc incrementally buckets requests into 1-second bins anchored at
// the first record seen (activity profiles). For sharded passes,
// SetAnchor pins the bin origin to the merged stream's first record time
// so every shard bins identically and Merge is exact.
type RateAcc struct {
	t0       sim.Time
	anchored bool
	any      bool
	bins     map[int]int
	maxBin   int
}

// NewRateAcc returns an empty request-rate accumulator.
func NewRateAcc() *RateAcc { return &RateAcc{bins: make(map[int]int)} }

// SetAnchor pins the time origin of the 1-second bins. A parallel driver
// anchors every worker at the merged stream's first record time, making
// per-shard binning — and therefore Merge — bit-identical to the
// sequential pass. Must be called before the first AddCols.
func (a *RateAcc) SetAnchor(t0 sim.Time) {
	a.t0 = t0
	a.anchored = true
}

// Merge folds another rate accumulator into a. Exact when both sides are
// anchored at the same origin (or either is empty), which is how the
// parallel drivers arrange their shards; merging differently-anchored
// non-empty accumulators would silently misalign bins, so it panics.
func (a *RateAcc) Merge(b *RateAcc) {
	if !b.any {
		return
	}
	if !a.any {
		a.t0 = b.t0
		a.anchored = true
		a.any = true
	} else if a.t0 != b.t0 {
		panic("analysis: merge of rate accumulators with different anchors")
	}
	for bin, c := range b.bins {
		a.bins[bin] += c
	}
	if b.maxBin > a.maxBin {
		a.maxBin = b.maxBin
	}
}

// Points finalizes the per-second request counts.
func (a *RateAcc) Points() []Point {
	if !a.any {
		return nil
	}
	out := make([]Point, a.maxBin+1)
	for i := range out {
		out[i] = Point{T: float64(i), V: float64(a.bins[i])}
	}
	return out
}

// PendingAcc incrementally summarizes the driver-queue depth recorded with
// every request.
type PendingAcc struct {
	q         QueueStats
	sum, busy int
	n         int
}

// NewPendingAcc returns an empty queue-depth accumulator.
func NewPendingAcc() *PendingAcc { return &PendingAcc{} }

// Merge folds another queue-depth accumulator into a; exact under any
// partition.
func (a *PendingAcc) Merge(b *PendingAcc) {
	a.sum += b.sum
	a.busy += b.busy
	a.n += b.n
	if b.q.MaxPending > a.q.MaxPending {
		a.q.MaxPending = b.q.MaxPending
	}
}

// Stats finalizes the queue-depth statistics.
func (a *PendingAcc) Stats() QueueStats {
	q := a.q
	if a.n > 0 {
		q.MeanPending = float64(a.sum) / float64(a.n)
		q.BusyFrac = float64(a.busy) / float64(a.n)
	}
	return q
}

// interAccess is one sector's revisit state: the first and most recent
// access times within the shard this accumulator saw, and whether the
// sector has been revisited. One map entry per sector replaces the two
// parallel maps (last-time and seen) the accumulator used to keep,
// halving per-sector map overhead on heat-heavy traces, and the first
// field is what makes time-contiguous shard merges exact.
type interAccess struct {
	first, last sim.Time
	revisited   bool
}

// InterAccessAcc incrementally computes the mean time between consecutive
// accesses to the same sector.
type InterAccessAcc struct {
	m     map[uint32]interAccess
	total sim.Duration
	n     int
}

// NewInterAccessAcc returns an empty inter-access accumulator.
func NewInterAccessAcc() *InterAccessAcc {
	return &InterAccessAcc{m: make(map[uint32]interAccess)}
}

// Merge folds another inter-access accumulator into a. Exact when b saw a
// time-contiguous continuation of a's stream (per-sector record order
// preserved across the split, as record-contiguous chunking or disjoint
// node sharding both guarantee): within-shard gaps are already counted and
// the gap spanning the boundary is reconstructed from a's last and b's
// first access per sector.
func (a *InterAccessAcc) Merge(b *InterAccessAcc) {
	a.total += b.total
	a.n += b.n
	for sec, eb := range b.m {
		ea, ok := a.m[sec]
		if !ok {
			a.m[sec] = eb
			continue
		}
		a.total += eb.first.Sub(ea.last)
		a.n++
		ea.last = eb.last
		ea.revisited = true
		a.m[sec] = ea
	}
}

// Result finalizes the mean gap and the number of revisited sectors.
func (a *InterAccessAcc) Result() (mean sim.Duration, sectors int) {
	if a.n == 0 {
		return 0, 0
	}
	for _, e := range a.m {
		if e.revisited {
			sectors++
		}
	}
	return a.total / sim.Duration(a.n), sectors
}
