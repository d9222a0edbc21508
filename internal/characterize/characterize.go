// Package characterize is the shared single-pass characterization
// surface behind cmd/essanalyze and the essd ingest endpoint: one Set
// of streaming accumulators fed from a trace Source, an exact Merge for
// chunked parallel passes, and a Report renderer producing the CLI's
// output byte for byte. Factoring it out of essanalyze is what lets the
// daemon's streamed characterization be diffed 1:1 against the batch
// CLI — the acceptance check of the service.
package characterize

import (
	"fmt"
	"sort"
	"strings"

	"essio/internal/analysis"
	"essio/internal/trace"
)

// Options selects which metrics a Set computes, mirroring essanalyze's
// flags one to one.
type Options struct {
	// Label is the row label of the summary line.
	Label string
	// Nodes is the number of disks the trace covers.
	Nodes int
	// Hist adds the request-size histogram.
	Hist bool
	// Spatial adds the 100K-sector locality bands.
	Spatial bool
	// Temporal adds the hottest-sector and inter-access report.
	Temporal bool
	// Queue adds driver queue-depth statistics.
	Queue bool
	// Origins adds the ground-truth origin breakdown.
	Origins bool
	// DiskSectors is the disk size in sectors (for the spatial bands).
	DiskSectors uint32
}

// DefaultOptions returns the CLI's defaults: a 16-node summary over the
// standard 1024000-sector disk, no optional sections.
func DefaultOptions() Options {
	return Options{Label: "trace", Nodes: 16, DiskSectors: 1024000}
}

// Set is one pass's set of requested accumulators. Feed it through
// Sink (or the individual Sinks) and render with Report.
type Set struct {
	opts  Options //essvet:mergeignore identical across shards by construction
	sum   *analysis.SummaryAcc
	hist  *analysis.SizeHistAcc
	bands *analysis.BandsAcc
	heat  *analysis.HeatAcc
	inter *analysis.InterAccessAcc
	pend  *analysis.PendingAcc
	orig  *analysis.OriginAcc
}

// New builds the accumulator set o selects.
func New(o Options) *Set {
	s := &Set{opts: o, sum: analysis.NewSummaryAcc(o.Label, 0, o.Nodes)}
	if o.Hist {
		s.hist = analysis.NewSizeHistAcc()
	}
	if o.Spatial {
		s.bands = analysis.NewBandsAcc(100000, o.DiskSectors)
	}
	if o.Temporal {
		s.heat = analysis.NewHeatAcc()
		s.inter = analysis.NewInterAccessAcc()
	}
	if o.Queue {
		s.pend = analysis.NewPendingAcc()
	}
	if o.Origins {
		s.orig = analysis.NewOriginAcc()
	}
	return s
}

// Sinks lists the selected accumulators as columnar sinks, for callers
// that compose their own Tee.
func (s *Set) Sinks() []trace.ColSink {
	out := []trace.ColSink{s.sum}
	if s.hist != nil {
		out = append(out, s.hist)
	}
	if s.bands != nil {
		out = append(out, s.bands)
	}
	if s.heat != nil {
		out = append(out, s.heat, s.inter)
	}
	if s.pend != nil {
		out = append(out, s.pend)
	}
	if s.orig != nil {
		out = append(out, s.orig)
	}
	return out
}

// Sink returns one columnar sink fanning batches out to every selected
// accumulator.
func (s *Set) Sink() trace.ColSink { return trace.Tee(s.Sinks()...) }

// Feed drains src through every selected accumulator and reports how
// many records it folded.
func (s *Set) Feed(src trace.Source) (int, error) {
	return trace.CopyCols(s.Sink(), trace.ToColSource(src))
}

// Merge folds b, which consumed the records immediately following s's,
// into s. Every fold is the accumulator's exact Merge, so the combined
// set matches a sequential pass over the whole stream.
func (s *Set) Merge(b *Set) {
	s.sum.Merge(b.sum)
	if s.hist != nil {
		s.hist.Merge(b.hist)
	}
	if s.bands != nil {
		s.bands.Merge(b.bands)
	}
	if s.heat != nil {
		s.heat.Merge(b.heat)
		s.inter.Merge(b.inter)
	}
	if s.pend != nil {
		s.pend.Merge(b.pend)
	}
	if s.orig != nil {
		s.orig.Merge(b.orig)
	}
}

// Report renders the characterization exactly as cmd/essanalyze prints
// it, section by section in flag order; n is the record count of the
// pass ("empty trace" when zero). The bytes are the CLI's stdout
// verbatim — the equality the essd ingest acceptance test diffs.
func (s *Set) Report(n int) string {
	var b strings.Builder
	if n == 0 {
		fmt.Fprintln(&b, "empty trace")
		return b.String()
	}
	duration := s.sum.Span()
	s.sum.SetDuration(duration)
	fmt.Fprintln(&b, s.sum.Summary())

	if s.hist != nil {
		h := s.hist.Histogram()
		sizes := make([]int, 0, len(h))
		for kb := range h {
			sizes = append(sizes, kb)
		}
		sort.Ints(sizes)
		fmt.Fprintln(&b, "request sizes:")
		for _, kb := range sizes {
			fmt.Fprintf(&b, "  %3d KB: %6d\n", kb, h[kb])
		}
	}
	if s.bands != nil {
		bands := s.bands.Bands()
		fmt.Fprintln(&b, "spatial locality (100K-sector bands):")
		for _, band := range bands {
			if band.Count > 0 {
				fmt.Fprintf(&b, "  %7d-%7d: %6d (%5.1f%%)\n", band.Lo, band.Hi, band.Count, band.Pct)
			}
		}
		fmt.Fprintf(&b, "  80%% of requests in %.0f%% of bands\n", 100*analysis.Pareto(bands, 0.8))
	}
	if s.heat != nil {
		heat := s.heat.Heat(duration)
		fmt.Fprintln(&b, "hottest sectors:")
		for _, h := range analysis.Hottest(heat, 10) {
			fmt.Fprintf(&b, "  sector %7d: %6d accesses (%.3f/s)\n", h.Sector, h.Count, h.PerSec)
		}
		mean, sectors := s.inter.Result()
		fmt.Fprintf(&b, "  mean inter-access time %.2fs over %d revisited sectors\n", mean.Seconds(), sectors)
	}
	if s.pend != nil {
		q := s.pend.Stats()
		fmt.Fprintf(&b, "driver queue: mean depth %.2f, max %d, busy on %.0f%% of issues\n",
			q.MeanPending, q.MaxPending, 100*q.BusyFrac)
	}
	if s.orig != nil {
		fmt.Fprintln(&b, "origins:")
		counts := s.orig.Breakdown()
		keys := make([]int, 0, len(counts))
		for o := range counts {
			keys = append(keys, int(o))
		}
		sort.Ints(keys)
		for _, o := range keys {
			fmt.Fprintf(&b, "  %-8s %6d\n", trace.Origin(o), counts[trace.Origin(o)])
		}
	}
	return b.String()
}

// Characterize drains src through a fresh Set and renders the report:
// the one-call sequential path shared by the CLI fallback and the
// daemon's ingest endpoint.
func Characterize(src trace.Source, o Options) (string, int, error) {
	s := New(o)
	n, err := s.Feed(src)
	if err != nil {
		return "", n, err
	}
	return s.Report(n), n, nil
}
