// The accumulators' one fold: every accumulator consumes trace.ColBatch
// views directly, scanning only the columns its metric reads. The inner
// loops are branch-light passes over dense arrays — no per-record
// interface dispatch, no struct field gathers — and map-backed
// accumulators batch their map traffic per run of equal values, which on
// real traces (near-constant request sizes, second-granularity bins)
// collapses one map operation per record to one per thousands. Each
// AddCols is semantically identical to folding the per-record row oracle
// (oracle_test.go) over the batch; the equivalence suite in cols_test.go
// checks that record for record.

package analysis

import (
	"essio/internal/sim"
	"essio/internal/trace"
)

// AddCols counts a columnar batch: one scan over ops, one over times.
func (a *SummaryAcc) AddCols(cols *trace.ColBatch) error {
	if cols.Len() == 0 {
		return nil
	}
	w := 0
	for _, op := range cols.Ops {
		if op != trace.Read {
			w++
		}
	}
	a.s.Writes += w
	a.s.Reads += cols.Len() - w
	first, last := cols.Times[0], cols.Times[0]
	for _, t := range cols.Times[1:] {
		if t < first {
			first = t
		}
		if t > last {
			last = t
		}
	}
	if !a.any || first < a.first {
		a.first = first
	}
	if !a.any || last > a.last {
		a.last = last
	}
	a.any = true
	return nil
}

// colKB is Record.KB over a raw count column value.
func colKB(count uint16) int {
	return (int(count)*trace.SectorSize + 1023) / 1024
}

// AddCols bins a columnar batch by size. Request sizes are highly
// repetitive, so the map increment is batched per run of equal counts.
func (a *SizeHistAcc) AddCols(cols *trace.ColBatch) error {
	counts := cols.Counts
	for i := 0; i < len(counts); {
		c := counts[i]
		j := i + 1
		for j < len(counts) && counts[j] == c {
			j++
		}
		a.h[colKB(c)] += j - i
		i = j
	}
	return nil
}

// AddCols classifies a columnar batch by the paper's size categories in
// one scan over the count column.
func (a *SizeClassAcc) AddCols(cols *trace.ColBatch) error {
	for _, c := range cols.Counts {
		switch kb := colKB(c); {
		case kb <= 1:
			a.c.Block1K++
		case kb == 4:
			a.c.Page4K++
		case kb >= 8:
			a.c.Large++
		default:
			a.c.Other++
		}
	}
	return nil
}

// AddCols counts a columnar batch per origin through a dense
// batch-local table — origins are single bytes — then folds the nonzero
// entries into the map once per batch.
func (a *OriginAcc) AddCols(cols *trace.ColBatch) error {
	var counts [256]int
	for _, o := range cols.Origins {
		counts[o]++
	}
	for o, c := range counts {
		if c != 0 {
			a.m[trace.Origin(o)] += c
		}
	}
	return nil
}

// AddCols buckets a columnar batch's sector column into bands: a
// division and a bounds clamp per record, no map in sight.
func (a *BandsAcc) AddCols(cols *trace.ColBatch) error {
	last := len(a.bands) - 1
	for _, sec := range cols.Sectors {
		bi := int(sec / a.bandSectors)
		if bi > last {
			bi = last
		}
		a.bands[bi].Count++
	}
	a.total += cols.Len()
	return nil
}

// AddCols counts a columnar batch's sector column.
func (a *HeatAcc) AddCols(cols *trace.ColBatch) error {
	for _, sec := range cols.Sectors {
		a.counts[sec]++
	}
	return nil
}

// Observe counts one access to sector; the column-scan entry point the
// Profiler's fused node-0 pass uses.
func (a *HeatAcc) Observe(sector uint32) { a.counts[sector]++ }

// AddCols bins a columnar batch's time column. The float bin expression
// is the per-record one, t.Sub(t0).Seconds() truncated — bit-equal
// binning at second boundaries — but the map increment is batched per
// run of records landing in the same bin, which for second-granularity
// bins over µs timestamps is nearly the whole batch.
func (a *RateAcc) AddCols(cols *trace.ColBatch) error {
	times := cols.Times
	if len(times) == 0 {
		return nil
	}
	if !a.any {
		a.any = true
		if !a.anchored {
			a.t0 = times[0]
			a.anchored = true
		}
	}
	run, runBin := 0, 0
	for _, t := range times {
		b := int(t.Sub(a.t0).Seconds())
		if run == 0 || b == runBin {
			runBin = b
			run++
			continue
		}
		a.bins[runBin] += run
		if runBin > a.maxBin {
			a.maxBin = runBin
		}
		runBin, run = b, 1
	}
	a.bins[runBin] += run
	if runBin > a.maxBin {
		a.maxBin = runBin
	}
	return nil
}

// AddCols summarizes a columnar batch's queue-depth column in one scan.
func (a *PendingAcc) AddCols(cols *trace.ColBatch) error {
	sum, busy, maxp := 0, 0, a.q.MaxPending
	for _, p := range cols.Pendings {
		pi := int(p)
		sum += pi
		if pi > maxp {
			maxp = pi
		}
		if pi > 0 {
			busy++
		}
	}
	a.sum += sum
	a.busy += busy
	a.q.MaxPending = maxp
	a.n += cols.Len()
	return nil
}

// AddCols observes a columnar batch sector by sector; the revisit map
// is inherently per-record, but the scan still skips the six unused
// columns.
func (a *InterAccessAcc) AddCols(cols *trace.ColBatch) error {
	for i, sec := range cols.Sectors {
		a.Observe(sec, cols.Times[i])
	}
	return nil
}

// Observe records one access to sector at time t.
func (a *InterAccessAcc) Observe(sector uint32, t sim.Time) {
	e, ok := a.m[sector]
	if ok {
		a.total += t.Sub(e.last)
		a.n++
		e.last = t
		e.revisited = true
	} else {
		e = interAccess{first: t, last: t}
	}
	a.m[sector] = e
}
