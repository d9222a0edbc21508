package synth

import (
	"io"
	"math"
	"math/rand"
	"testing"

	"essio/internal/model"
	"essio/internal/replay"
	"essio/internal/sim"
	"essio/internal/trace"
)

// baseModel fits a reference model from a deterministic handcrafted trace
// with the paper's three request populations (1 KB log writes, bursty
// 4 KB paging, sequential 16 KB data reads).
func baseModel(tb testing.TB) *model.WorkloadModel {
	tb.Helper()
	rng := rand.New(rand.NewSource(21))
	recs := make([]trace.Record, 0, 8000)
	t := sim.Time(0)
	seqEnd := uint32(0)
	for i := 0; i < 8000; i++ {
		var r trace.Record
		r.Node = uint8(rng.Intn(4))
		switch x := rng.Float64(); {
		case x < 0.4:
			r.Op = trace.Write
			r.Origin = trace.OriginLog
			r.Count = 2
			r.Sector = 1000000 + uint32(rng.Intn(500))*2
			t = t.Add(sim.Duration(20000 + rng.Intn(300000)))
		case x < 0.7:
			r.Op = trace.Write
			if rng.Float64() < 0.3 {
				r.Op = trace.Read
			}
			r.Origin = trace.OriginSwap
			r.Count = 8
			r.Sector = 40000 + uint32(rng.Intn(100))*8
			t = t.Add(sim.Duration(rng.Intn(3000)))
		default:
			r.Op = trace.Read
			r.Origin = trace.OriginData
			r.Count = 32
			if seqEnd != 0 && rng.Float64() < 0.7 {
				r.Sector = seqEnd
			} else {
				r.Sector = 150000 + uint32(rng.Intn(1000))*32
			}
			seqEnd = r.Sector + 32
			t = t.Add(sim.Duration(rng.Intn(20000)))
		}
		r.Time = t
		r.Pending = uint16(rng.Intn(4))
		recs = append(recs, r)
	}
	return model.FitSlice("base", recs, 0, 1024000, 0)
}

func collectFor(tb testing.TB, m *model.WorkloadModel, opts Options) []trace.Record {
	tb.Helper()
	g, err := New(m, opts)
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := trace.Collect(g)
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

func TestDeterministicForSeed(t *testing.T) {
	m := baseModel(t)
	opts := Options{Seed: 9, Duration: 60 * sim.Second}
	a := collectFor(t, m, opts)
	b := collectFor(t, m, opts)
	if len(a) == 0 {
		t.Fatal("no records generated")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d then %d records", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at record %d: %v vs %v", i, a[i], b[i])
		}
	}

	opts.Seed = 10
	c := collectFor(t, m, opts)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRecordsValidAndOrdered(t *testing.T) {
	m := baseModel(t)
	recs := collectFor(t, m, Options{Seed: 1, Duration: 120 * sim.Second})
	if len(recs) < 100 {
		t.Fatalf("only %d records in 120s", len(recs))
	}
	limit := sim.Time(0).Add(120 * sim.Second)
	for i, r := range recs {
		if i > 0 && r.Time < recs[i-1].Time {
			t.Fatalf("record %d goes back in time", i)
		}
		if r.Time >= limit {
			t.Fatalf("record %d at %v beyond duration", i, r.Time)
		}
		if r.End() > m.DiskSectors {
			t.Fatalf("record %d overruns the disk: %v", i, r)
		}
		if int(r.Node) >= m.Nodes {
			t.Fatalf("record %d on node %d of %d", i, r.Node, m.Nodes)
		}
		if r.Count == 0 {
			t.Fatalf("record %d has zero length", i)
		}
	}
}

func TestUnboundedGeneration(t *testing.T) {
	g, err := New(baseModel(t), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if _, err := g.Next(); err != nil {
			t.Fatalf("unbounded generator ended at record %d: %v", i, err)
		}
	}
}

func TestRateMultiplier(t *testing.T) {
	m := baseModel(t)
	n1 := len(collectFor(t, m, Options{Seed: 4, Duration: 120 * sim.Second}))
	n3 := len(collectFor(t, m, Options{Seed: 4, Duration: 120 * sim.Second, RateMultiplier: 3}))
	ratio := float64(n3) / float64(n1)
	if ratio < 2.2 || ratio > 3.8 {
		t.Fatalf("3x rate multiplier changed record count by %.2fx (%d -> %d)", ratio, n1, n3)
	}
}

func TestNodeScaling(t *testing.T) {
	m := baseModel(t) // fitted from 4 nodes
	recs := collectFor(t, m, Options{Seed: 5, Duration: 120 * sim.Second, Nodes: 8})
	n4 := len(collectFor(t, m, Options{Seed: 5, Duration: 120 * sim.Second}))
	for i, r := range recs {
		if int(r.Node) >= 8 {
			t.Fatalf("record %d on node %d with 8 nodes", i, r.Node)
		}
	}
	seen := make(map[uint8]bool)
	for _, r := range recs {
		seen[r.Node] = true
	}
	if len(seen) < 6 {
		t.Errorf("only %d of 8 nodes carried traffic", len(seen))
	}
	ratio := float64(len(recs)) / float64(n4)
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("doubling nodes changed aggregate records by %.2fx, want ~2x", ratio)
	}
}

func TestReadFractionOverride(t *testing.T) {
	m := baseModel(t)
	allW := collectFor(t, m, Options{Seed: 6, Duration: 60 * sim.Second, OverrideReadFraction: true})
	for i, r := range allW {
		if r.Op != trace.Write {
			t.Fatalf("record %d is a read under a 0 read-fraction override", i)
		}
	}
	allR := collectFor(t, m, Options{Seed: 6, Duration: 60 * sim.Second, OverrideReadFraction: true, ReadFraction: 1})
	for i, r := range allR {
		if r.Op != trace.Read {
			t.Fatalf("record %d is a write under a 1 read-fraction override", i)
		}
	}
}

// TestRoundTripSelfConsistency is the subsystem's core property: a model
// fitted on a trace generated from that same model must be statistically
// indistinguishable (within tolerance) from the original, at more than
// one seed.
func TestRoundTripSelfConsistency(t *testing.T) {
	m := baseModel(t)
	tol := model.DefaultTolerance()
	for _, seed := range []uint64{1, 2} {
		g, err := New(m, Options{Seed: seed, Duration: 300 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		refit := model.NewFitter("refit", 0, m.DiskSectors, m.BandSectors)
		if _, err := trace.CopyCols(refit, trace.ToColSource(g)); err != nil {
			t.Fatal(err)
		}
		d := model.Distance(m, refit.Model())
		if err := d.Check(tol); err != nil {
			t.Errorf("seed %d: %v\n%v", seed, err, d)
		}
	}
}

// TestSyntheticFlowsThroughReplay checks the acceptance path: generated
// records are plain trace records, so replay consumes them unchanged.
func TestSyntheticFlowsThroughReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay of a synthetic minute is not short")
	}
	m := baseModel(t)
	recs := collectFor(t, m, Options{Seed: 8, Duration: 30 * sim.Second})
	rep, err := replay.Replay(recs, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != len(recs) {
		t.Fatalf("replayed %d of %d records", rep.Requests, len(recs))
	}
	if rep.Elapsed <= 0 || rep.PhysReqs == 0 {
		t.Fatalf("degenerate replay report: %+v", rep)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	m := baseModel(t)
	if _, err := New(m, Options{Nodes: 1000}); err == nil {
		t.Error("accepted out-of-range node count")
	}
	if _, err := New(m, Options{RateMultiplier: -1}); err == nil {
		t.Error("accepted negative rate multiplier")
	}
	if _, err := New(m, Options{OverrideReadFraction: true, ReadFraction: 2}); err == nil {
		t.Error("accepted read fraction 2")
	}
	if _, err := New(&model.WorkloadModel{}, Options{}); err == nil {
		t.Error("accepted empty model")
	}
}

func TestGenerateBatch(t *testing.T) {
	m := baseModel(t)
	recs, err := Generate(m, Options{Seed: 2}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 500 {
		t.Fatalf("Generate returned %d records, want 500", len(recs))
	}
}

func TestMeanRatePreserved(t *testing.T) {
	m := baseModel(t)
	recs := collectFor(t, m, Options{Seed: 11, Duration: 300 * sim.Second})
	rate := float64(len(recs)) / 300
	if math.Abs(rate-m.MeanRate)/m.MeanRate > 0.25 {
		t.Fatalf("generated rate %.2f vs fitted %.2f", rate, m.MeanRate)
	}
}

func TestEOFIsSticky(t *testing.T) {
	g, err := New(baseModel(t), Options{Seed: 1, Duration: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := g.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Next(); err != io.EOF {
		t.Fatalf("Next after EOF: %v", err)
	}
}
