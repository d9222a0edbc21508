package model

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"essio/internal/sim"
	"essio/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// makeTrace builds a deterministic, time-ordered trace mixing the three
// request populations the paper characterizes: steady 1 KB log writes,
// bursty 4 KB paging, and sequential 16 KB data reads.
func makeTrace(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, 0, n)
	t := sim.Time(0)
	seqEnd := uint32(0)
	for i := 0; i < n; i++ {
		var r trace.Record
		r.Node = uint8(rng.Intn(4))
		switch x := rng.Float64(); {
		case x < 0.4: // logging: 1 KB writes high on the disk
			r.Op = trace.Write
			r.Origin = trace.OriginLog
			r.Count = 2
			r.Sector = 1000000 + uint32(rng.Intn(500))*2
			t = t.Add(sim.Duration(20000 + rng.Intn(400000)))
		case x < 0.7: // paging: 4 KB in the swap area, arriving in bursts
			r.Op = trace.Write
			if rng.Float64() < 0.3 {
				r.Op = trace.Read
			}
			r.Origin = trace.OriginSwap
			r.Count = 8
			r.Sector = 40000 + uint32(rng.Intn(100))*8
			t = t.Add(sim.Duration(rng.Intn(3000)))
		default: // data: 16 KB sequential read runs in the file area
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
	return recs
}

func TestFitterBasics(t *testing.T) {
	recs := makeTrace(5000, 7)
	m := FitSlice("test", recs, 0, 1024000, 0)

	if m.Requests != len(recs) {
		t.Fatalf("Requests = %d, want %d", m.Requests, len(recs))
	}
	if m.Nodes != 4 {
		t.Errorf("inferred Nodes = %d, want 4", m.Nodes)
	}
	if m.BandSectors != DefaultBandSectors {
		t.Errorf("BandSectors = %d, want default %d", m.BandSectors, DefaultBandSectors)
	}

	reads := 0
	for _, r := range recs {
		if r.Op == trace.Read {
			reads++
		}
	}
	wantRF := float64(reads) / float64(len(recs))
	if math.Abs(m.ReadFraction-wantRF) > 1e-12 {
		t.Errorf("ReadFraction = %v, want %v", m.ReadFraction, wantRF)
	}

	var sumP float64
	for _, o := range m.Origins {
		sumP += o.P
		if len(o.SizeSectors) == 0 {
			t.Errorf("origin %s has empty size distribution", o.Origin)
		}
		var sp float64
		for _, b := range o.SizeSectors {
			sp += b.P
		}
		if math.Abs(sp-1) > 1e-9 {
			t.Errorf("origin %s size probabilities sum to %v", o.Origin, sp)
		}
	}
	if math.Abs(sumP-1) > 1e-9 {
		t.Errorf("origin mixture sums to %v", sumP)
	}
	if len(m.Origins) != 3 {
		t.Errorf("got %d origins, want 3", len(m.Origins))
	}

	var bandP float64
	for _, b := range m.Bands {
		bandP += b.P
		if b.Hi <= b.Lo {
			t.Errorf("band [%d,%d) empty", b.Lo, b.Hi)
		}
	}
	if math.Abs(bandP-1) > 1e-9 {
		t.Errorf("band probabilities sum to %v", bandP)
	}

	if m.SeqP <= 0 || m.SeqP >= 1 {
		t.Errorf("SeqP = %v, want in (0,1)", m.SeqP)
	}
	if m.Arrival.BurstRate < m.Arrival.BaseRate {
		t.Errorf("burst rate %v below base rate %v", m.Arrival.BurstRate, m.Arrival.BaseRate)
	}
	if m.MeanRate <= 0 {
		t.Errorf("MeanRate = %v", m.MeanRate)
	}
}

func TestFitterMatchesTeePass(t *testing.T) {
	// The fitter is a ColSink: fitting through a Tee alongside another
	// consumer must equal fitting alone.
	recs := makeTrace(1000, 3)
	alone := FitSlice("x", recs, 0, 1024000, 0)

	teed := NewFitter("x", 0, 1024000, 0)
	var collect trace.Collector
	if _, err := trace.CopyCols(trace.Tee(&collect, teed), trace.ToColSource(trace.SliceSource(recs))); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alone, teed.Model()) {
		t.Fatal("fit through Tee differs from fit alone")
	}
	if len(collect.Recs) != len(recs) {
		t.Fatalf("tee delivered %d records, want %d", len(collect.Recs), len(recs))
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := FitSlice("rt", makeTrace(2000, 11), 0, 1024000, 0)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("JSON round trip changed the model")
	}
}

func TestModelGoldenJSON(t *testing.T) {
	// A fixed small trace must serialize to exactly the checked-in
	// golden file, so accidental format changes (field renames, bucket
	// changes) are caught. Regenerate with -update after intentional
	// format changes, bumping Version.
	m := FitSlice("golden", makeTrace(200, 42), 0, 1024000, 0)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "model_golden.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("golden mismatch: fitted model serializes differently than %s; run 'go test ./internal/model -run Golden -update' if the format change is intentional", path)
	}
}

func TestReadJSONRejectsBadModels(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"format_version": 99}`,
		`{"format_version": 1, "nodes": 1, "band_sectors": 100}`,                   // zero disk
		`{"format_version": 1, "nodes": 0, "disk_sectors": 10, "band_sectors": 1}`, // zero nodes
	}
	for _, c := range cases {
		if _, err := ReadJSON(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("ReadJSON(%q) accepted invalid model", c)
		}
	}
}

func TestEmptyFit(t *testing.T) {
	m := NewFitter("empty", 0, 1000, 100).Model()
	if m.Requests != 0 || m.Nodes != 1 {
		t.Fatalf("empty fit: %+v", m)
	}
}

func TestGapBucketInverse(t *testing.T) {
	for _, d := range []sim.Duration{0, 1, 2, 3, 1000, 1 << 20} {
		b := gapBucket(d)
		lo := GapBucketLow(b)
		if d == 0 {
			if b != -1 || lo != 0 {
				t.Errorf("zero gap: bucket %d low %v", b, lo)
			}
			continue
		}
		if lo > d || d >= 2*lo {
			t.Errorf("gap %v: bucket %d covers [%v,%v)", d, b, lo, 2*lo)
		}
	}
}
