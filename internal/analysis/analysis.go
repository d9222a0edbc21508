// Package analysis computes the workload-characterization metrics of the
// study from driver traces: read/write mix and request rates (Table 1),
// request-size and sector time series (Figures 1–6), spatial locality as
// percentage of requests per sector band (Figure 7), and temporal locality
// as per-sector access frequency (Figure 8).
package analysis

import (
	"fmt"
	"sort"

	"essio/internal/sim"
	"essio/internal/trace"
)

// Summary is one row of the paper's Table 1.
type Summary struct {
	Label    string
	Nodes    int
	Duration sim.Duration
	Reads    int
	Writes   int
	// ReadPct and WritePct are percentages of total requests.
	ReadPct  float64
	WritePct float64
	// ReqPerSec is the average request rate per disk.
	ReqPerSec float64
	// TotalPerDisk is the average number of requests per disk.
	TotalPerDisk float64
}

// Summarize builds a Table 1 row from a merged multi-node trace. It is
// the batch form of the streaming SummaryAcc.
func Summarize(label string, recs []trace.Record, duration sim.Duration, nodes int) Summary {
	a := NewSummaryAcc(label, duration, nodes)
	feed(a, recs)
	return a.Summary()
}

// feed pushes a slice through an accumulator at the row edge;
// accumulators never fail.
func feed(s trace.ColSink, recs []trace.Record) {
	if _, err := trace.CopyCols(s, trace.ToColSource(trace.SliceSource(recs))); err != nil {
		panic("analysis: accumulator failed: " + err.Error())
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("%-10s reads %5.1f%%  writes %5.1f%%  %7.2f req/s  %9.0f total (avg/disk, %d nodes, %.0fs)",
		s.Label, s.ReadPct, s.WritePct, s.ReqPerSec, s.TotalPerDisk, s.Nodes, s.Duration.Seconds())
}

// Point is one (time, value) observation.
type Point struct {
	T float64 // seconds since trace start
	V float64
}

// SizeSeries extracts the request-size-vs-time scatter (Figures 2–5): one
// point per request, value in KB.
func SizeSeries(recs []trace.Record) []Point {
	if len(recs) == 0 {
		return nil
	}
	t0 := recs[0].Time
	out := make([]Point, len(recs))
	for i, r := range recs {
		out[i] = Point{T: r.Time.Sub(t0).Seconds(), V: float64(r.KB())}
	}
	return out
}

// SectorSeries extracts the sector-vs-time scatter (Figures 1 and 6).
func SectorSeries(recs []trace.Record) []Point {
	if len(recs) == 0 {
		return nil
	}
	t0 := recs[0].Time
	out := make([]Point, len(recs))
	for i, r := range recs {
		out[i] = Point{T: r.Time.Sub(t0).Seconds(), V: float64(r.Sector)}
	}
	return out
}

// SizeHistogram counts requests per KB size class. It is the batch form
// of the streaming SizeHistAcc.
func SizeHistogram(recs []trace.Record) map[int]int {
	a := NewSizeHistAcc()
	feed(a, recs)
	return a.Histogram()
}

// SizeClasses buckets requests into the paper's three primary categories
// plus a residual: 1 KB block I/O, 4 KB paging, >=8 KB large/streaming, and
// other.
type SizeClasses struct {
	Block1K int
	Page4K  int
	Large   int // >= 8 KB (16/32 KB cache-scale requests and up)
	Other   int
}

// ClassifySizes computes the size-class split. It is the batch form of
// the streaming SizeClassAcc.
func ClassifySizes(recs []trace.Record) SizeClasses {
	a := NewSizeClassAcc()
	feed(a, recs)
	return a.Classes()
}

// OriginBreakdown counts requests per ground-truth origin, used to validate
// the size-based inference. It is the batch form of the streaming
// OriginAcc.
func OriginBreakdown(recs []trace.Record) map[trace.Origin]int {
	a := NewOriginAcc()
	feed(a, recs)
	return a.Breakdown()
}

// Band is one spatial-locality bucket (Figure 7).
type Band struct {
	Lo, Hi uint32 // sector range [Lo, Hi)
	Count  int
	Pct    float64
}

// SpatialBands buckets requests into fixed-width sector bands over the
// whole disk (the paper uses 100 K-sector bands on a ~1 M-sector disk).
// It is the batch form of the streaming BandsAcc.
func SpatialBands(recs []trace.Record, bandSectors, diskSectors uint32) []Band {
	a := NewBandsAcc(bandSectors, diskSectors)
	feed(a, recs)
	return a.Bands()
}

// Pareto reports the smallest fraction of bands that carries the given
// fraction of requests — the "80/20 rule" check the paper makes on spatial
// locality.
func Pareto(bands []Band, trafficFrac float64) (bandFrac float64) {
	sorted := append([]Band(nil), bands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Count > sorted[j].Count })
	total := 0
	for _, b := range sorted {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	need := trafficFrac * float64(total)
	acc := 0.0
	for i, b := range sorted {
		acc += float64(b.Count)
		if acc >= need {
			return float64(i+1) / float64(len(sorted))
		}
	}
	return 1
}

// Heat is per-sector access frequency (Figure 8).
type Heat struct {
	Sector uint32
	PerSec float64
	Count  int
}

// TemporalHeat computes access frequency per starting sector, averaged over
// the run, exactly as the paper presents temporal locality. It is the
// batch form of the streaming HeatAcc.
func TemporalHeat(recs []trace.Record, duration sim.Duration) []Heat {
	a := NewHeatAcc()
	feed(a, recs)
	return a.Heat(duration)
}

// heatFromCounts finalizes a per-sector count map into the sorted Heat
// slice both TemporalHeat and HeatAcc return.
func heatFromCounts(counts map[uint32]int, duration sim.Duration) []Heat {
	out := make([]Heat, 0, len(counts))
	secs := duration.Seconds()
	for sec, c := range counts {
		h := Heat{Sector: sec, Count: c}
		if secs > 0 {
			h.PerSec = float64(c) / secs
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sector < out[j].Sector })
	return out
}

// Hottest returns the k most frequently accessed sectors, most frequent
// first (ties broken by lower sector).
func Hottest(heat []Heat, k int) []Heat {
	sorted := append([]Heat(nil), heat...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Count != sorted[j].Count {
			return sorted[i].Count > sorted[j].Count
		}
		return sorted[i].Sector < sorted[j].Sector
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// InterAccess computes the mean time between consecutive accesses to the
// same sector, over sectors accessed at least twice (the paper's "average
// time between consecutive accesses to the same sector" metric).
func InterAccess(recs []trace.Record) (mean sim.Duration, sectors int) {
	a := NewInterAccessAcc()
	feed(a, recs)
	return a.Result()
}

// Window restricts a trace to records in [from, to).
func Window(recs []trace.Record, from, to sim.Time) []trace.Record {
	var out []trace.Record
	for _, r := range recs {
		if r.Time >= from && r.Time < to {
			out = append(out, r)
		}
	}
	return out
}

// FilterOp keeps only records with the given op.
func FilterOp(recs []trace.Record, op trace.Op) []trace.Record {
	var out []trace.Record
	for _, r := range recs {
		if r.Op == op {
			out = append(out, r)
		}
	}
	return out
}

// FilterNode keeps only one node's records.
func FilterNode(recs []trace.Record, node uint8) []trace.Record {
	var out []trace.Record
	for _, r := range recs {
		if r.Node == node {
			out = append(out, r)
		}
	}
	return out
}

// RatePerSecond buckets requests into 1-second bins (activity profiles).
// It is the batch form of the streaming RateAcc.
func RatePerSecond(recs []trace.Record) []Point {
	a := NewRateAcc()
	feed(a, recs)
	return a.Points()
}

// QueueStats summarizes the driver-queue depth the instrumentation records
// with every request (the paper's "count of the remaining I/O requests to
// be processed").
type QueueStats struct {
	MeanPending float64
	MaxPending  int
	// BusyFrac is the fraction of requests issued while others waited.
	BusyFrac float64
}

// PendingStats computes queue-depth statistics from a trace. It is the
// batch form of the streaming PendingAcc.
func PendingStats(recs []trace.Record) QueueStats {
	a := NewPendingAcc()
	feed(a, recs)
	return a.Stats()
}
