// The streaming characterizer: a trace.ColSink that builds the full
// Profile in one incremental pass, so full-scale traces can be profiled
// straight from a file or a live node merge without materializing them.

package core

import (
	"essio/internal/analysis"
	"essio/internal/obs"
	"essio/internal/sim"
	"essio/internal/trace"
)

// Profiler accumulates a complete workload Profile batch by batch. It
// implements trace.ColSink; feed it a trace (in time order, as drivers
// emit it) and call Profile once the stream ends. Characterize is its
// slice form.
type Profiler struct {
	// Construction-time configuration: every shard of a parallel pass is
	// built with identical values, so Merge keeps the receiver's copy.
	label       string          //essvet:mergeignore identical across shards by construction
	nodes       int             //essvet:mergeignore identical across shards by construction
	duration    sim.Duration    //essvet:mergeignore identical across shards by construction
	diskSectors uint32          //essvet:mergeignore identical across shards by construction
	om          profilerMetrics //essvet:mergeignore per-worker handles; registries merge separately

	summary *analysis.SummaryAcc
	classes *analysis.SizeClassAcc
	origins *analysis.OriginAcc
	bands   *analysis.BandsAcc
	rate    *analysis.RateAcc
	pending *analysis.PendingAcc

	// Temporal locality is a per-disk property; node 0 is the
	// representative disk, as in the paper's Figure 8.
	node0Heat  *analysis.HeatAcc
	node0Inter *analysis.InterAccessAcc

	// Back-to-back physical sequentiality per disk. firstSector remembers
	// each disk's first observed request so Merge can replay the
	// sequentiality check across a shard boundary.
	lastEnd       map[uint8]uint32
	firstSector   map[uint8]uint32
	seq, seqTotal int
}

// NewProfiler returns a streaming characterizer for one traced workload.
func NewProfiler(label string, duration sim.Duration, nodes int, diskSectors uint32) *Profiler {
	return &Profiler{
		label:       label,
		nodes:       nodes,
		duration:    duration,
		diskSectors: diskSectors,
		summary:     analysis.NewSummaryAcc(label, duration, nodes),
		classes:     analysis.NewSizeClassAcc(),
		origins:     analysis.NewOriginAcc(),
		bands:       analysis.NewBandsAcc(bandWidth, diskSectors),
		rate:        analysis.NewRateAcc(),
		pending:     analysis.NewPendingAcc(),
		node0Heat:   analysis.NewHeatAcc(),
		node0Inter:  analysis.NewInterAccessAcc(),
		lastEnd:     make(map[uint8]uint32),
		firstSector: make(map[uint8]uint32),
	}
}

// SetAnchor pins the time origin of the 1-second activity bins. A
// parallel driver anchors every worker at the earliest record time of the
// whole trace so per-shard rate binning matches the sequential pass; see
// analysis.RateAcc.SetAnchor. Must be called before the first AddCols.
func (p *Profiler) SetAnchor(t0 sim.Time) { p.rate.SetAnchor(t0) }

// profilerMetrics holds the characterizer's observability handles; the
// zero value records nothing.
type profilerMetrics struct {
	stage    *obs.Stage
	batchLen *obs.Histogram
	span     *obs.StageTimer
}

// Instrument registers the characterizer's pipeline metrics in reg: the
// pipeline/accumulate stage counts records, batches, and bytes folded
// in; at Full a batch-length histogram and a span per AddCols batch
// record the flow's shape. The span clock is the stage's own record counter —
// pure record arithmetic, so observed runs stay deterministic at any
// worker count.
func (p *Profiler) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := reg.Stage("accumulate")
	tr := obs.NewTracer(reg, func() int64 { return int64(st.Records()) })
	p.om = profilerMetrics{
		stage:    st,
		batchLen: reg.Histogram("pipeline/accumulate/batch_len", obs.ExpBuckets(64, 4, 8)),
		span:     tr.Stage("accumulate"),
	}
}

// AddCols folds a whole columnar batch into the profile. The six
// whole-trace accumulators each scan just the columns they read; node-0
// temporal locality and per-disk sequentiality fuse into one pass over
// the node/sector/count/time columns. The per-disk tail state must stay
// in the maps (Merge replays and perturbs them per field), but within a
// batch it is cached in dense node-indexed arrays, so the two map
// operations per record of a per-record fold become two per (node,
// batch). Observation is per batch, keeping the instrumented hot path
// cheap.
func (p *Profiler) AddCols(cols *trace.ColBatch) error {
	sp := p.om.span.Start()
	p.summary.AddCols(cols)
	p.classes.AddCols(cols)
	p.origins.AddCols(cols)
	p.bands.AddCols(cols)
	p.rate.AddCols(cols)
	p.pending.AddCols(cols)

	var (
		end    [256]uint32
		endOK  [256]bool
		loaded [256]bool
	)
	nodes, secs := cols.Nodes, cols.Sectors
	cnts, times := cols.Counts, cols.Times
	for i, node := range nodes {
		sec := secs[i]
		if node == 0 {
			p.node0Heat.Observe(sec)
			p.node0Inter.Observe(sec, times[i])
		}
		if !loaded[node] {
			loaded[node] = true
			if e, ok := p.lastEnd[node]; ok {
				end[node], endOK[node] = e, true
			} else {
				// First record ever seen for this disk: remember its
				// opening sector for Merge's boundary replay.
				p.firstSector[node] = sec
			}
		}
		if endOK[node] {
			p.seqTotal++
			if sec == end[node] {
				p.seq++
			}
		}
		end[node] = sec + uint32(cnts[i])
		endOK[node] = true
	}
	for n, ok := range loaded {
		if ok {
			p.lastEnd[uint8(n)] = end[n]
		}
	}

	p.om.stage.ObserveBatch(cols.Len(), cols.Len()*trace.RecordSize)
	p.om.batchLen.Observe(int64(cols.Len()))
	sp.End()
	return nil
}

// Merge folds another profiler into p, leaving p exactly as if it had
// consumed both record streams in one pass. It is exact when the shards
// are node-disjoint (each disk's records went wholly to one profiler, as
// the parallel driver arranges) or when o saw a time-contiguous
// continuation of p's stream; in either case both profilers must share a
// rate anchor (SetAnchor) for the activity bins to line up.
func (p *Profiler) Merge(o *Profiler) {
	p.summary.Merge(o.summary)
	p.classes.Merge(o.classes)
	p.origins.Merge(o.origins)
	p.bands.Merge(o.bands)
	p.rate.Merge(o.rate)
	p.pending.Merge(o.pending)
	p.node0Heat.Merge(o.node0Heat)
	p.node0Inter.Merge(o.node0Inter)

	// Replay the per-disk back-to-back check across the shard boundary,
	// then adopt o's per-disk tail state.
	p.seq += o.seq
	p.seqTotal += o.seqTotal
	for node, sector := range o.firstSector {
		if end, ok := p.lastEnd[node]; ok {
			p.seqTotal++
			if sector == end {
				p.seq++
			}
		} else {
			p.firstSector[node] = sector
		}
	}
	for node, end := range o.lastEnd {
		p.lastEnd[node] = end
	}
}

// Profile finalizes the characterization.
func (p *Profiler) Profile() *Profile {
	prof := &Profile{
		Label:       p.label,
		Nodes:       p.nodes,
		Duration:    p.duration,
		DiskSectors: p.diskSectors,
		Summary:     p.summary.Summary(),
		Classes:     p.classes.Classes(),
		Origins:     p.origins.Breakdown(),
		Queue:       p.pending.Stats(),
	}
	prof.Bands = p.bands.Bands()
	prof.ParetoFrac = analysis.Pareto(prof.Bands, 0.8)
	prof.Hottest = analysis.Hottest(p.node0Heat.Heat(p.duration), 5)
	prof.MeanInterAccess, _ = p.node0Inter.Result()
	if p.seqTotal > 0 {
		prof.SeqFraction = float64(p.seq) / float64(p.seqTotal)
	}
	prof.BurstIndex = burstFromRates(p.rate.Points())
	return prof
}

// burstFromRates is peak-to-mean of a 1-second arrival profile.
func burstFromRates(rates []analysis.Point) float64 {
	if len(rates) == 0 {
		return 0
	}
	var sum, peak float64
	for _, pt := range rates {
		sum += pt.V
		if pt.V > peak {
			peak = pt.V
		}
	}
	mean := sum / float64(len(rates))
	if mean == 0 {
		return 0
	}
	return peak / mean
}
