package model

import (
	"math"
	"math/bits"
	"sort"

	"essio/internal/sim"
	"essio/internal/trace"
)

// DefaultBandSectors is the paper's 100 K-sector spatial bucket, the
// default band width for fitted models.
const DefaultBandSectors = 100000

// Fitter fits a WorkloadModel from a trace in one streaming pass. It
// implements trace.ColSink, so it composes with trace.Tee: the same pass
// that feeds the analysis accumulators can fit the generative model. Feed
// it records in merged (Time, Node, Sector) order — the order every Source
// in the pipeline produces — and call Model when the stream ends.
type Fitter struct {
	// Construction-time configuration: every shard of a parallel pass is
	// built with identical values (Merge asserts the band geometry), so
	// Merge keeps the receiver's copy.
	label       string //essvet:mergeignore identical across shards by construction
	nodes       int    //essvet:mergeignore identical across shards by construction (0 = infer from trace)
	diskSectors uint32 //essvet:mergeignore identical across shards by construction
	bandSectors uint32

	n           int
	reads       int
	first, last sim.Time
	any         bool
	anchor      sim.Time // time origin of the per-second bins
	anchored    bool
	seenNodes   [4]uint64 // bitmap of observed node IDs

	perOrigin map[trace.Origin]*originAcc
	secBins   map[int]int // per-second request counts, anchored at anchor
	maxSec    int

	bandCounts []int
	bandHeat   []map[uint32]int // per-band distinct-sector counts

	// lastEnd tracks per-disk tail state for the back-to-back
	// sequentiality check; firstSector remembers each disk's first request
	// so Merge can replay the check across a shard boundary.
	lastEnd       map[uint8]uint32
	firstSector   map[uint8]uint32
	seq, seqTotal int

	pending map[int]int
	inter   map[int]int         // log2(µs) bucketed inter-arrival gaps
	secGaps map[int]map[int]int // gap buckets per second, for state split
}

type originAcc struct {
	count int
	reads int
	sizes map[int]int // request length in sectors → count
}

// NewFitter returns a model fitter for one workload. nodes 0 infers the
// node count from the records seen; diskSectors must be the traced disk
// size; bandSectors 0 uses DefaultBandSectors.
func NewFitter(label string, nodes int, diskSectors, bandSectors uint32) *Fitter {
	if diskSectors == 0 {
		panic("model: zero disk size")
	}
	if bandSectors == 0 {
		bandSectors = DefaultBandSectors
	}
	nb := int((diskSectors + bandSectors - 1) / bandSectors)
	return &Fitter{
		label:       label,
		nodes:       nodes,
		diskSectors: diskSectors,
		bandSectors: bandSectors,
		perOrigin:   make(map[trace.Origin]*originAcc),
		secBins:     make(map[int]int),
		bandCounts:  make([]int, nb),
		bandHeat:    make([]map[uint32]int, nb),
		lastEnd:     make(map[uint8]uint32),
		firstSector: make(map[uint8]uint32),
		pending:     make(map[int]int),
		inter:       make(map[int]int),
		secGaps:     make(map[int]map[int]int),
	}
}

// SetAnchor pins the time origin of the per-second arrival bins. A
// sharded pass anchors every fitter at the first record time of the whole
// stream so per-shard binning — and therefore Merge — matches the
// sequential fit. Must be called before the first AddCols.
func (f *Fitter) SetAnchor(t0 sim.Time) {
	f.anchor = t0
	f.anchored = true
}

// recordGap folds one merged-stream inter-arrival gap ending at time t
// into the overall and state-split histograms.
func (f *Fitter) recordGap(gb int, t sim.Time) {
	f.inter[gb]++
	sec := int(t.Sub(f.anchor).Seconds())
	sg := f.secGaps[sec]
	if sg == nil {
		sg = make(map[int]int)
		f.secGaps[sec] = sg
	}
	sg[gb]++
}

// add folds one record into every fitted distribution: the fitter's
// per-record step, which AddCols drives.
func (f *Fitter) add(r trace.Record) {
	if f.any {
		// Inter-arrival gap of the merged stream, recorded overall and
		// per second (of the later record) so Model can split gaps by
		// arrival state.
		f.recordGap(gapBucket(r.Time.Sub(f.last)), r.Time)
	} else {
		f.first = r.Time
		if !f.anchored {
			f.anchor = r.Time
			f.anchored = true
		}
	}
	f.last = r.Time
	f.any = true
	f.n++
	if r.Op == trace.Read {
		f.reads++
	}
	f.seenNodes[r.Node/64] |= 1 << (r.Node % 64)

	oa := f.perOrigin[r.Origin]
	if oa == nil {
		oa = &originAcc{sizes: make(map[int]int)}
		f.perOrigin[r.Origin] = oa
	}
	oa.count++
	if r.Op == trace.Read {
		oa.reads++
	}
	oa.sizes[int(r.Count)]++

	b := int(r.Time.Sub(f.anchor).Seconds())
	f.secBins[b]++
	if b > f.maxSec {
		f.maxSec = b
	}

	bi := int(r.Sector / f.bandSectors)
	if bi >= len(f.bandCounts) {
		bi = len(f.bandCounts) - 1
	}
	f.bandCounts[bi]++
	if f.bandHeat[bi] == nil {
		f.bandHeat[bi] = make(map[uint32]int)
	}
	f.bandHeat[bi][r.Sector]++

	if end, ok := f.lastEnd[r.Node]; ok {
		f.seqTotal++
		if r.Sector == end {
			f.seq++
		}
	} else {
		f.firstSector[r.Node] = r.Sector
	}
	f.lastEnd[r.Node] = r.End()

	f.pending[int(r.Pending)]++
}

// AddCols folds a columnar batch into the fit. Every fitted statistic
// couples consecutive records (inter-arrival gaps, per-disk run
// lengths), so the fold is inherently sequential: records are
// reassembled from the columns and pushed through the per-record step
// in order, which makes the fit independent of how the stream is cut
// into batches.
func (f *Fitter) AddCols(cols *trace.ColBatch) error {
	for i, n := 0, cols.Len(); i < n; i++ {
		f.add(cols.Record(i))
	}
	return nil
}

// Merge folds another fitter into f, leaving f exactly as if it had
// consumed both record streams in one sequential pass. It is exact when o
// saw a time-contiguous continuation of f's merged stream — the shape
// chunked trace-file analysis produces — and both fitters share an anchor
// (SetAnchor); the inter-arrival gap spanning the boundary is
// reconstructed from f's last and o's first record, and the per-disk
// sequentiality check is replayed across the seam.
func (f *Fitter) Merge(o *Fitter) {
	if o.n == 0 {
		return
	}
	if f.n == 0 {
		f.anchor, f.anchored = o.anchor, o.anchored
	} else if f.anchor != o.anchor {
		panic("model: merge of fitters with different anchors")
	}
	if !f.any {
		f.first = o.first
	} else {
		// The gap between the two shards belongs to the merged stream.
		f.recordGap(gapBucket(o.first.Sub(f.last)), o.first)
	}
	f.last = o.last
	f.any = true
	f.n += o.n
	f.reads += o.reads
	for i, w := range o.seenNodes {
		f.seenNodes[i] |= w
	}

	for origin, ob := range o.perOrigin {
		oa := f.perOrigin[origin]
		if oa == nil {
			oa = &originAcc{sizes: make(map[int]int)}
			f.perOrigin[origin] = oa
		}
		oa.count += ob.count
		oa.reads += ob.reads
		for sz, c := range ob.sizes {
			oa.sizes[sz] += c
		}
	}

	for sec, c := range o.secBins {
		f.secBins[sec] += c
	}
	if o.maxSec > f.maxSec {
		f.maxSec = o.maxSec
	}
	for sec, gaps := range o.secGaps {
		sg := f.secGaps[sec]
		if sg == nil {
			sg = make(map[int]int)
			f.secGaps[sec] = sg
		}
		for gb, c := range gaps {
			sg[gb] += c
		}
	}

	if len(o.bandCounts) != len(f.bandCounts) || o.bandSectors != f.bandSectors {
		panic("model: merge of fitters with different band geometry")
	}
	for i, c := range o.bandCounts {
		f.bandCounts[i] += c
		if bh := o.bandHeat[i]; bh != nil {
			if f.bandHeat[i] == nil {
				f.bandHeat[i] = make(map[uint32]int, len(bh))
			}
			for sec, c := range bh {
				f.bandHeat[i][sec] += c
			}
		}
	}

	f.seq += o.seq
	f.seqTotal += o.seqTotal
	for node, sector := range o.firstSector {
		if end, ok := f.lastEnd[node]; ok {
			f.seqTotal++
			if sector == end {
				f.seq++
			}
		} else {
			f.firstSector[node] = sector
		}
	}
	for node, end := range o.lastEnd {
		f.lastEnd[node] = end
	}

	for p, c := range o.pending {
		f.pending[p] += c
	}
	for gb, c := range o.inter {
		f.inter[gb] += c
	}
}

// gapBucket maps an inter-arrival gap to its log2 microsecond bucket; -1
// holds zero gaps.
func gapBucket(d sim.Duration) int {
	if d <= 0 {
		return -1
	}
	return bits.Len64(uint64(d)) - 1
}

// GapBucketLow reports the smallest gap (µs) a bucket covers, the inverse
// of the fitter's log2 bucketing; generators and distance computations use
// it to place a bucket on the time axis.
func GapBucketLow(v int) sim.Duration {
	if v < 0 {
		return 0
	}
	return sim.Duration(1) << uint(v)
}

// Records reports how many records have been fitted so far.
func (f *Fitter) Records() int { return f.n }

// Model finalizes the fit.
func (f *Fitter) Model() *WorkloadModel {
	m := &WorkloadModel{
		FormatVersion: Version,
		Label:         f.label,
		Nodes:         f.nodes,
		DiskSectors:   f.diskSectors,
		BandSectors:   f.bandSectors,
		Requests:      f.n,
	}
	if m.Nodes == 0 {
		for _, w := range f.seenNodes {
			m.Nodes += bits.OnesCount64(w)
		}
		if m.Nodes == 0 {
			m.Nodes = 1
		}
	}
	if f.n == 0 {
		return m
	}
	m.DurationSec = f.last.Sub(f.first).Seconds()
	m.ReadFraction = float64(f.reads) / float64(f.n)
	if m.DurationSec > 0 {
		m.MeanRate = float64(f.n) / m.DurationSec
	} else {
		m.MeanRate = float64(f.n)
	}
	if f.seqTotal > 0 {
		m.SeqP = float64(f.seq) / float64(f.seqTotal)
	}

	// Mixture components, sorted by origin for stable serialization.
	origins := make([]trace.Origin, 0, len(f.perOrigin))
	for o := range f.perOrigin {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, o := range origins {
		oa := f.perOrigin[o]
		m.Origins = append(m.Origins, OriginModel{
			Origin:       o.String(),
			P:            float64(oa.count) / float64(f.n),
			ReadFraction: float64(oa.reads) / float64(oa.count),
			SizeSectors:  histFromCounts(oa.sizes),
		})
	}

	m.Arrival = fitArrival(f.secBins, f.secGaps, f.maxSec)

	for i, c := range f.bandCounts {
		if c == 0 {
			continue
		}
		lo := uint32(i) * f.bandSectors
		hi := lo + f.bandSectors
		if hi > f.diskSectors {
			hi = f.diskSectors
		}
		m.Bands = append(m.Bands, BandModel{
			Lo:      lo,
			Hi:      hi,
			P:       float64(c) / float64(f.n),
			Sectors: len(f.bandHeat[i]),
			ZipfS:   fitZipf(f.bandHeat[i]),
		})
	}

	m.InterArrivalUS = histFromCounts(f.inter)
	m.Pending = histFromCounts(f.pending)
	return m
}

// fitArrival fits the two-state modulated arrival process from per-second
// request counts: seconds above the mean count are the burst state.
func fitArrival(bins map[int]int, secGaps map[int]map[int]int, maxSec int) ArrivalModel {
	nsec := maxSec + 1
	total := 0
	for _, c := range bins {
		total += c
	}
	mean := float64(total) / float64(nsec)

	var a ArrivalModel
	burst := func(s int) bool { return float64(bins[s]) > mean }

	var baseSum, burstSum float64
	baseN, burstN := 0, 0
	for s := 0; s < nsec; s++ {
		if burst(s) {
			burstSum += float64(bins[s])
			burstN++
		} else {
			baseSum += float64(bins[s])
			baseN++
		}
	}
	if baseN > 0 {
		a.BaseRate = baseSum / float64(baseN)
	}
	if burstN > 0 {
		a.BurstRate = burstSum / float64(burstN)
	} else {
		// No burst seconds: the load is smooth; both states share the
		// mean so the generator degenerates to plain Poisson arrivals.
		a.BurstRate = a.BaseRate
	}
	a.PBase = float64(baseN) / float64(nsec)

	// Transition probabilities from consecutive-second state pairs.
	b2u, u2b := 0, 0 // base→burst, burst→base
	baseFrom, burstFrom := 0, 0
	for s := 0; s < nsec-1; s++ {
		if burst(s) {
			burstFrom++
			if !burst(s + 1) {
				u2b++
			}
		} else {
			baseFrom++
			if burst(s + 1) {
				b2u++
			}
		}
	}
	if baseFrom > 0 {
		a.PBaseToBurst = float64(b2u) / float64(baseFrom)
	}
	if burstFrom > 0 {
		a.PBurstToBase = float64(u2b) / float64(burstFrom)
	}

	// State-conditional gap distributions: each second's gaps go to the
	// histogram of that second's state.
	baseGaps := make(map[int]int)
	burstGaps := make(map[int]int)
	for s, gaps := range secGaps {
		dst := baseGaps
		if burst(s) {
			dst = burstGaps
		}
		for gb, c := range gaps {
			dst[gb] += c
		}
	}
	a.BaseGapUS = histFromCounts(baseGaps)
	a.BurstGapUS = histFromCounts(burstGaps)
	return a
}

// fitZipf fits the exponent of count(rank) ~ rank^-s by least squares on
// the log-log rank-frequency curve of a band's sector counts. Bands with
// fewer than two distinct sectors, or no skew, fit s = 0 (uniform).
func fitZipf(counts map[uint32]int) float64 {
	if len(counts) < 2 {
		return 0
	}
	cs := make([]int, 0, len(counts))
	for _, c := range counts {
		cs = append(cs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cs)))

	var sx, sy, sxx, sxy float64
	n := float64(len(cs))
	for i, c := range cs {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(c))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	s := -(n*sxy - sx*sy) / den
	// Clamp to a sane generator range: negative slopes mean no skew,
	// and exponents beyond 4 are indistinguishable from "one hot
	// sector" at any realistic band population.
	if s < 0 || math.IsNaN(s) {
		return 0
	}
	if s > 4 {
		return 4
	}
	return s
}

// Fit drains src through a new Fitter and returns the fitted model; the
// one-call form of the streaming fitter.
func Fit(label string, src trace.Source, nodes int, diskSectors, bandSectors uint32) (*WorkloadModel, error) {
	f := NewFitter(label, nodes, diskSectors, bandSectors)
	if _, err := trace.CopyCols(f, trace.ToColSource(src)); err != nil {
		return nil, err
	}
	return f.Model(), nil
}

// FitSlice fits a model from an in-memory trace, the batch form of Fit.
func FitSlice(label string, recs []trace.Record, nodes int, diskSectors, bandSectors uint32) *WorkloadModel {
	m, err := Fit(label, trace.SliceSource(recs), nodes, diskSectors, bandSectors)
	if err != nil {
		// Slice sources and fitters never fail.
		panic("model: fit slice: " + err.Error())
	}
	return m
}
