// Package core is the study's primary contribution as a reusable library:
// the workload characterizer. It consumes instrumented-driver traces and
// produces the full characterization the paper derives — request-size
// classes, read/write mix and rates, sequentiality, burstiness, spatial and
// temporal locality — plus the paper's stated next step: integrating those
// measurements into a parameter set for system design and tuning.
package core

import (
	"fmt"
	"sort"
	"strings"

	"essio/internal/analysis"
	"essio/internal/sim"
	"essio/internal/trace"
)

// Profile is the complete characterization of one traced workload.
type Profile struct {
	Label       string
	Nodes       int
	Duration    sim.Duration
	DiskSectors uint32

	Summary analysis.Summary
	Classes analysis.SizeClasses
	Origins map[trace.Origin]int

	// Bands is the spatial distribution in 100 K-sector bands; ParetoFrac
	// is the band fraction carrying 80 % of requests.
	Bands      []analysis.Band
	ParetoFrac float64

	// Hottest lists the most revisited sectors of disk 0; MeanInterAccess
	// is the paper's average time between accesses to the same sector.
	Hottest         []analysis.Heat
	MeanInterAccess sim.Duration

	// SeqFraction is the fraction of requests that begin exactly where
	// the previous request on the same disk ended (physical
	// sequentiality).
	SeqFraction float64

	// BurstIndex is the peak 1-second request count divided by the mean
	// (1 = perfectly smooth).
	BurstIndex float64

	// Queue summarizes the driver-queue depth recorded with every request.
	Queue analysis.QueueStats
}

// bandWidth is the paper's spatial bucket size.
const bandWidth = 100000

// Characterize computes a Profile from a merged multi-node trace. It is
// the slice form of the streaming Profiler sink.
func Characterize(label string, recs []trace.Record, duration sim.Duration, nodes int, diskSectors uint32) *Profile {
	p := NewProfiler(label, duration, nodes, diskSectors)
	feed(p, recs)
	return p.Profile()
}

// feed folds an in-memory trace into p at the row edge; the profiler
// never fails.
func feed(p *Profiler, recs []trace.Record) {
	if _, err := trace.CopyCols(p, trace.ToColSource(trace.SliceSource(recs))); err != nil {
		panic("core: profiler failed: " + err.Error())
	}
}

// String renders the profile as a report block.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload profile: %s\n", p.Label)
	fmt.Fprintf(&b, "  %s\n", p.Summary)
	total := p.Classes.Block1K + p.Classes.Page4K + p.Classes.Large + p.Classes.Other
	if total > 0 {
		fmt.Fprintf(&b, "  sizes: 1KB %.1f%%  4KB %.1f%%  >=8KB %.1f%%  other %.1f%%\n",
			100*float64(p.Classes.Block1K)/float64(total),
			100*float64(p.Classes.Page4K)/float64(total),
			100*float64(p.Classes.Large)/float64(total),
			100*float64(p.Classes.Other)/float64(total))
	}
	fmt.Fprintf(&b, "  sequential: %.1f%%  burst index: %.1f  queue: mean %.2f max %d (busy %.0f%%)\n",
		100*p.SeqFraction, p.BurstIndex, p.Queue.MeanPending, p.Queue.MaxPending, 100*p.Queue.BusyFrac)
	fmt.Fprintf(&b, "  spatial: 80%% of requests in %.0f%% of %dK-sector bands\n",
		100*p.ParetoFrac, bandWidth/1000)
	if len(p.Hottest) > 0 {
		fmt.Fprintf(&b, "  hottest sectors (disk 0):")
		for _, h := range p.Hottest {
			fmt.Fprintf(&b, " %d(%d)", h.Sector, h.Count)
		}
		fmt.Fprintf(&b, "\n  mean same-sector revisit: %.1fs\n", p.MeanInterAccess.Seconds())
	}
	// Origin validation of the size-based inference.
	keys := make([]int, 0, len(p.Origins))
	for o := range p.Origins {
		keys = append(keys, int(o))
	}
	sort.Ints(keys)
	fmt.Fprintf(&b, "  origins:")
	for _, o := range keys {
		fmt.Fprintf(&b, " %s=%d", trace.Origin(o), p.Origins[trace.Origin(o)])
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// PagingShare reports the fraction of requests that are 4 KB (the paging
// class).
func (p *Profile) PagingShare() float64 {
	total := p.Classes.Block1K + p.Classes.Page4K + p.Classes.Large + p.Classes.Other
	if total == 0 {
		return 0
	}
	return float64(p.Classes.Page4K) / float64(total)
}

// DesignParams is the tuning parameter set the paper proposes deriving from
// the characterization ("our next step is to integrate these data into a
// parameter set that can be used for system design and tuning").
type DesignParams struct {
	// ReadAheadKB is the suggested sequential read-ahead window.
	ReadAheadKB int
	// WritePolicy is "write-back" (bursty, log-dominated loads) or
	// "write-through" (read-dominated loads with few writes).
	WritePolicy string
	// SuggestedMemoryMB is the node memory that would eliminate most of
	// the observed paging traffic.
	SuggestedMemoryMB int
	// SeparateLogDisk suggests moving logging off the data disk when log
	// plus trace traffic dominates.
	SeparateLogDisk bool
	// HotSectorCacheKB sizes a small non-volatile cache that would absorb
	// the hottest sectors.
	HotSectorCacheKB int
	// Rationale explains each choice.
	Rationale []string
}

// Derive computes tuning suggestions from the profile.
func (p *Profile) Derive(memoryMB int) DesignParams {
	var d DesignParams
	total := p.Classes.Block1K + p.Classes.Page4K + p.Classes.Large + p.Classes.Other
	if total == 0 {
		return d
	}
	// Read-ahead: profitable when the workload shows sequentiality or
	// large streaming requests.
	largeFrac := float64(p.Classes.Large) / float64(total)
	switch {
	case p.SeqFraction > 0.3 || largeFrac > 0.1:
		d.ReadAheadKB = 32
		d.Rationale = append(d.Rationale, "strong sequentiality: widen read-ahead to 32 KB")
	case p.SeqFraction > 0.1 || largeFrac > 0.01:
		d.ReadAheadKB = 16
		d.Rationale = append(d.Rationale, "moderate sequentiality: keep 16 KB read-ahead")
	default:
		d.ReadAheadKB = 4
		d.Rationale = append(d.Rationale, "little sequentiality: shrink read-ahead to 4 KB")
	}
	// Write policy: write-back wins when writes dominate and arrive in
	// log-style bursts.
	if p.Summary.WritePct > 60 && p.BurstIndex > 2 {
		d.WritePolicy = "write-back"
		d.Rationale = append(d.Rationale, "bursty write-dominated load: keep write-back with periodic flush")
	} else {
		d.WritePolicy = "write-through"
		d.Rationale = append(d.Rationale, "read-dominated or smooth load: write-through is safe and simple")
	}
	// Memory: each doubling roughly halves the paging class; suggest
	// enough doublings to bring paging under 5 % of requests.
	d.SuggestedMemoryMB = memoryMB
	paging := p.PagingShare()
	for paging > 0.05 && d.SuggestedMemoryMB < memoryMB*8 {
		d.SuggestedMemoryMB *= 2
		paging /= 2
	}
	if d.SuggestedMemoryMB > memoryMB {
		d.Rationale = append(d.Rationale,
			fmt.Sprintf("4 KB paging is %.0f%% of requests: grow memory to ~%d MB",
				100*p.PagingShare(), d.SuggestedMemoryMB))
	}
	// Logging placement.
	logShare := float64(p.Origins[trace.OriginLog]+p.Origins[trace.OriginTrace]) / float64(total)
	if logShare > 0.3 {
		d.SeparateLogDisk = true
		d.Rationale = append(d.Rationale,
			fmt.Sprintf("logging+instrumentation is %.0f%% of traffic: dedicate a log device", 100*logShare))
	}
	// Hot-sector cache: cover the observed hot spots.
	if len(p.Hottest) > 0 && p.Hottest[0].Count > 10 {
		d.HotSectorCacheKB = len(p.Hottest) * 4
		d.Rationale = append(d.Rationale, "persistent hot sectors: a small pinned cache absorbs them")
	}
	return d
}
