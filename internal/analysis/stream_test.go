package analysis

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"essio/internal/sim"
	"essio/internal/trace"
)

// The oracles below are the original slice-based implementations, kept in
// the tests as the reference every streaming accumulator must match
// exactly on randomized traces.

func summarizeOracle(label string, recs []trace.Record, duration sim.Duration, nodes int) Summary {
	s := Summary{Label: label, Nodes: nodes, Duration: duration}
	for _, r := range recs {
		if r.Op == trace.Read {
			s.Reads++
		} else {
			s.Writes++
		}
	}
	total := s.Reads + s.Writes
	if total > 0 {
		s.ReadPct = 100 * float64(s.Reads) / float64(total)
		s.WritePct = 100 * float64(s.Writes) / float64(total)
	}
	if nodes > 0 {
		s.TotalPerDisk = float64(total) / float64(nodes)
		if duration > 0 {
			s.ReqPerSec = s.TotalPerDisk / duration.Seconds()
		}
	}
	return s
}

func sizeHistogramOracle(recs []trace.Record) map[int]int {
	h := make(map[int]int)
	for _, r := range recs {
		h[r.KB()]++
	}
	return h
}

func classifySizesOracle(recs []trace.Record) SizeClasses {
	var c SizeClasses
	for _, r := range recs {
		switch kb := r.KB(); {
		case kb <= 1:
			c.Block1K++
		case kb == 4:
			c.Page4K++
		case kb >= 8:
			c.Large++
		default:
			c.Other++
		}
	}
	return c
}

func spatialBandsOracle(recs []trace.Record, bandSectors, diskSectors uint32) []Band {
	nb := int((diskSectors + bandSectors - 1) / bandSectors)
	bands := make([]Band, nb)
	for i := range bands {
		bands[i].Lo = uint32(i) * bandSectors
		bands[i].Hi = bands[i].Lo + bandSectors
	}
	total := 0
	for _, r := range recs {
		bi := int(r.Sector / bandSectors)
		if bi >= nb {
			bi = nb - 1
		}
		bands[bi].Count++
		total++
	}
	if total > 0 {
		for i := range bands {
			bands[i].Pct = 100 * float64(bands[i].Count) / float64(total)
		}
	}
	return bands
}

func temporalHeatOracle(recs []trace.Record, duration sim.Duration) []Heat {
	counts := make(map[uint32]int)
	for _, r := range recs {
		counts[r.Sector]++
	}
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

func ratePerSecondOracle(recs []trace.Record) []Point {
	if len(recs) == 0 {
		return nil
	}
	t0 := recs[0].Time
	bins := make(map[int]int)
	maxBin := 0
	for _, r := range recs {
		b := int(r.Time.Sub(t0).Seconds())
		bins[b]++
		if b > maxBin {
			maxBin = b
		}
	}
	out := make([]Point, maxBin+1)
	for i := range out {
		out[i] = Point{T: float64(i), V: float64(bins[i])}
	}
	return out
}

func pendingStatsOracle(recs []trace.Record) QueueStats {
	var q QueueStats
	if len(recs) == 0 {
		return q
	}
	var sum, busy int
	for _, r := range recs {
		p := int(r.Pending)
		sum += p
		if p > q.MaxPending {
			q.MaxPending = p
		}
		if p > 0 {
			busy++
		}
	}
	q.MeanPending = float64(sum) / float64(len(recs))
	q.BusyFrac = float64(busy) / float64(len(recs))
	return q
}

func interAccessOracle(recs []trace.Record) (sim.Duration, int) {
	last := make(map[uint32]sim.Time)
	var total sim.Duration
	n := 0
	seen := make(map[uint32]bool)
	for _, r := range recs {
		if t, ok := last[r.Sector]; ok {
			total += r.Time.Sub(t)
			n++
			seen[r.Sector] = true
		}
		last[r.Sector] = r.Time
	}
	if n == 0 {
		return 0, 0
	}
	return total / sim.Duration(n), len(seen)
}

// randTrace builds a randomized trace with clustered sectors and times so
// revisits, shared bins, and ties are common.
func randTrace(rng *rand.Rand) []trace.Record {
	recs := make([]trace.Record, rng.Intn(300))
	for i := range recs {
		recs[i] = trace.Record{
			Time:    sim.Time(rng.Intn(30)) * sim.Time(sim.Second),
			Sector:  uint32(rng.Intn(40)) * 25000,
			Count:   uint16(rng.Intn(64) + 1),
			Pending: uint16(rng.Intn(5)),
			Op:      trace.Op(rng.Intn(2)),
			Node:    uint8(rng.Intn(4)),
			Origin:  trace.Origin(rng.Intn(7)),
		}
	}
	return recs
}

// TestQuickAccumulatorsMatchBatch is the streaming-equivalence property:
// every accumulator, fed record by record, produces exactly what its
// batch counterpart computes on the whole slice.
func TestQuickAccumulatorsMatchBatch(t *testing.T) {
	f := func(seed int64, durSecs uint16, nodes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randTrace(rng)
		duration := sim.Duration(durSecs) * sim.Second

		if !reflect.DeepEqual(Summarize("q", recs, duration, int(nodes)),
			summarizeOracle("q", recs, duration, int(nodes))) {
			return false
		}
		if !reflect.DeepEqual(SizeHistogram(recs), sizeHistogramOracle(recs)) {
			return false
		}
		if ClassifySizes(recs) != classifySizesOracle(recs) {
			return false
		}
		if !reflect.DeepEqual(SpatialBands(recs, 100000, 1024000),
			spatialBandsOracle(recs, 100000, 1024000)) {
			return false
		}
		if !reflect.DeepEqual(TemporalHeat(recs, duration), temporalHeatOracle(recs, duration)) {
			return false
		}
		if !reflect.DeepEqual(RatePerSecond(recs), ratePerSecondOracle(recs)) {
			return false
		}
		if PendingStats(recs) != pendingStatsOracle(recs) {
			return false
		}
		gm, gs := InterAccess(recs)
		wm, ws := interAccessOracle(recs)
		return gm == wm && gs == ws
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTeeSinglePass checks that one pass over a source can feed several
// accumulators at once through a Tee and still match the batch results.
func TestTeeSinglePass(t *testing.T) {
	recs := randTrace(rand.New(rand.NewSource(42)))
	sum := NewSummaryAcc("tee", 30*sim.Second, 4)
	hist := NewSizeHistAcc()
	classes := NewSizeClassAcc()
	pend := NewPendingAcc()
	if _, err := trace.CopyCols(trace.Tee(sum, hist, classes, pend), trace.ToColSource(trace.SliceSource(recs))); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum.Summary(), Summarize("tee", recs, 30*sim.Second, 4)) {
		t.Fatal("summary diverged")
	}
	if !reflect.DeepEqual(hist.Histogram(), SizeHistogram(recs)) {
		t.Fatal("histogram diverged")
	}
	if classes.Classes() != ClassifySizes(recs) {
		t.Fatal("classes diverged")
	}
	if pend.Stats() != PendingStats(recs) {
		t.Fatal("pending diverged")
	}
}

// TestSummaryAccSpan checks the observed-span bookkeeping essanalyze uses
// when no external duration is known.
func TestSummaryAccSpan(t *testing.T) {
	a := NewSummaryAcc("span", 0, 1)
	var b trace.ColBatch
	for _, s := range []sim.Duration{5 * sim.Second, 2 * sim.Second, 9 * sim.Second} {
		b.AppendRecord(trace.Record{Time: sim.Time(s)})
	}
	if err := a.AddCols(&b); err != nil {
		t.Fatal(err)
	}
	if a.Span() != 7*sim.Second {
		t.Fatalf("span = %v", a.Span())
	}
	a.SetDuration(a.Span())
	if s := a.Summary(); s.ReqPerSec == 0 || s.Duration != 7*sim.Second {
		t.Fatalf("summary = %+v", s)
	}
}
