package core

// The Profiler's row oracle: the per-record fold Profiler carried before
// AddCols became its only fold. It lives here, in test code, as the
// reference the equivalence suites (cols_test.go, stream_test.go) hold
// the fused columnar pass to. The whole-trace accumulators it feeds are
// pinned to their own row oracles by the analysis package's suites, so
// here each one takes the record as a one-record batch; everything the
// Profiler folds itself — node-0 temporal locality, per-disk
// sequentiality, the first-sector bookkeeping Merge replays — is
// recomputed record by record.

import "essio/internal/trace"

// Add folds one record into every metric of the profile.
func (p *Profiler) Add(r trace.Record) error {
	var one trace.ColBatch
	one.AppendRecord(r)
	p.summary.AddCols(&one)
	p.classes.AddCols(&one)
	p.origins.AddCols(&one)
	p.bands.AddCols(&one)
	p.rate.AddCols(&one)
	p.pending.AddCols(&one)
	if r.Node == 0 {
		p.node0Heat.AddCols(&one)
		p.node0Inter.AddCols(&one)
	}
	if end, ok := p.lastEnd[r.Node]; ok {
		p.seqTotal++
		if r.Sector == end {
			p.seq++
		}
	} else {
		p.firstSector[r.Node] = r.Sector
	}
	p.lastEnd[r.Node] = r.End()
	return nil
}
