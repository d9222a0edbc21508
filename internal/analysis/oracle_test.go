package analysis

// Row oracles: the per-record Add folds the accumulators carried before
// AddCols became their only fold. They live here, in test code, as the
// reference the equivalence suites (cols_test.go, stream_test.go) hold
// every AddCols to, record for record.

import "essio/internal/trace"

// Add counts one record.
func (a *SummaryAcc) Add(r trace.Record) error {
	if r.Op == trace.Read {
		a.s.Reads++
	} else {
		a.s.Writes++
	}
	if !a.any || r.Time < a.first {
		a.first = r.Time
	}
	if !a.any || r.Time > a.last {
		a.last = r.Time
	}
	a.any = true
	return nil
}

// Add counts one record.
func (a *SizeHistAcc) Add(r trace.Record) error {
	a.h[r.KB()]++
	return nil
}

// Add classifies one record.
func (a *SizeClassAcc) Add(r trace.Record) error {
	switch kb := r.KB(); {
	case kb <= 1:
		a.c.Block1K++
	case kb == 4:
		a.c.Page4K++
	case kb >= 8:
		a.c.Large++
	default:
		a.c.Other++
	}
	return nil
}

// Add counts one record.
func (a *OriginAcc) Add(r trace.Record) error {
	a.m[r.Origin]++
	return nil
}

// Add buckets one record.
func (a *BandsAcc) Add(r trace.Record) error {
	bi := int(r.Sector / a.bandSectors)
	if bi >= len(a.bands) {
		bi = len(a.bands) - 1
	}
	a.bands[bi].Count++
	a.total++
	return nil
}

// Add counts one record.
func (a *HeatAcc) Add(r trace.Record) error {
	a.counts[r.Sector]++
	return nil
}

// Add bins one record.
func (a *RateAcc) Add(r trace.Record) error {
	if !a.any {
		a.any = true
		if !a.anchored {
			a.t0 = r.Time
			a.anchored = true
		}
	}
	b := int(r.Time.Sub(a.t0).Seconds())
	a.bins[b]++
	if b > a.maxBin {
		a.maxBin = b
	}
	return nil
}

// Add counts one record.
func (a *PendingAcc) Add(r trace.Record) error {
	p := int(r.Pending)
	a.sum += p
	if p > a.q.MaxPending {
		a.q.MaxPending = p
	}
	if p > 0 {
		a.busy++
	}
	a.n++
	return nil
}

// Add observes one record.
func (a *InterAccessAcc) Add(r trace.Record) error {
	a.Observe(r.Sector, r.Time)
	return nil
}
