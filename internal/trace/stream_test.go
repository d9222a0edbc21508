package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"essio/internal/sim"
)

// sortMergeOracle is the original sort-everything Merge, kept as the
// reference the streaming k-way merge must reproduce exactly.
func sortMergeOracle(traces ...[]Record) []Record {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make([]Record, 0, total)
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Sector < out[j].Sector
	})
	return out
}

// mkRandTraces builds per-node traces with deliberately clustered keys so
// ties across nodes and equal (Time, Node, Sector) keys are common.
func mkRandTraces(rng *rand.Rand) [][]Record {
	nodes := 1 + rng.Intn(5)
	traces := make([][]Record, nodes)
	for n := range traces {
		recs := make([]Record, rng.Intn(200))
		for i := range recs {
			recs[i] = Record{
				Time:    sim.Time(rng.Intn(20)) * sim.Time(sim.Second),
				Sector:  uint32(rng.Intn(8)) * 1000,
				Count:   uint16(rng.Intn(64) + 1),
				Pending: uint16(rng.Intn(4)),
				Op:      Op(rng.Intn(2)),
				Node:    uint8(n),
				Origin:  Origin(rng.Intn(7)),
			}
		}
		traces[n] = recs
	}
	return traces
}

func TestQuickMergeMatchesSortOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		traces := mkRandTraces(rng)
		want := sortMergeOracle(traces...)
		got := Merge(traces...)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeSourcesMatchesSortOracle(t *testing.T) {
	// Pre-sorted inputs streamed through MergeSources directly: identical
	// to the stable sort of the concatenation, one buffered record per
	// input.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		traces := mkRandTraces(rng)
		for _, tr := range traces {
			sort.SliceStable(tr, func(a, b int) bool { return less(tr[a], tr[b]) })
		}
		want := sortMergeOracle(traces...)
		srcs := make([]Source, len(traces))
		for i, tr := range traces {
			srcs[i] = SliceSource(tr)
		}
		got, err := Collect(MergeSources(srcs...))
		if err != nil {
			return false
		}
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeUnsortedInputFallsBackToSort(t *testing.T) {
	// A deliberately reversed input must still come out fully sorted.
	in := []Record{
		{Time: 3 * sim.Time(sim.Second)},
		{Time: 2 * sim.Time(sim.Second)},
		{Time: 1 * sim.Time(sim.Second)},
	}
	keep := append([]Record(nil), in...)
	m := Merge(in)
	for i := 1; i < len(m); i++ {
		if m[i].Time < m[i-1].Time {
			t.Fatalf("unsorted merge output: %v", m)
		}
	}
	// The caller's slice must not be reordered in place.
	if !reflect.DeepEqual(in, keep) {
		t.Fatalf("Merge mutated its input: %v", in)
	}
}

func TestStreamingReaderMatchesReadAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkRandTraces(rng)[0]
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			return false
		}
		// Batch read.
		batch, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		// Incremental read, one record per Next.
		r := NewReader(bytes.NewReader(buf.Bytes()))
		var streamed []Record
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			streamed = append(streamed, rec)
		}
		return reflect.DeepEqual(batch, streamed) && len(streamed) == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingWriterMatchesWriteAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkRandTraces(rng)[0]
		var batch bytes.Buffer
		if err := WriteAll(&batch, recs); err != nil {
			return false
		}
		var streamed bytes.Buffer
		w := NewWriter(&streamed)
		if _, err := Copy(w, SliceSource(recs)); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		return bytes.Equal(batch.Bytes(), streamed.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := mkRandTraces(rng)[0]
		var batch bytes.Buffer
		if err := WriteText(&batch, recs); err != nil {
			return false
		}
		var streamed bytes.Buffer
		w := NewTextWriter(&streamed)
		if _, err := Copy(w, SliceSource(recs)); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		if !bytes.Equal(batch.Bytes(), streamed.Bytes()) {
			return false
		}
		// Incremental parse returns what the batch parser returns.
		batchRecs, err := ReadText(bytes.NewReader(batch.Bytes()))
		if err != nil {
			return false
		}
		var incr []Record
		tr := NewTextReader(bytes.NewReader(streamed.Bytes()))
		for {
			rec, err := tr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			incr = append(incr, rec)
		}
		return reflect.DeepEqual(batchRecs, incr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTeeFansOut(t *testing.T) {
	recs := mkRandTraces(rand.New(rand.NewSource(7)))[0]
	var a, b Collector
	n, err := CopyCols(Tee(&a, &b), ToColSource(SliceSource(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("copied %d of %d", n, len(recs))
	}
	if !reflect.DeepEqual(a.Recs, b.Recs) || len(a.Recs) != len(recs) {
		t.Fatalf("tee diverged: %d vs %d", len(a.Recs), len(b.Recs))
	}
}

func TestSinkFuncAndCollect(t *testing.T) {
	recs := mkRandTraces(rand.New(rand.NewSource(9)))[0]
	count := 0
	if _, err := Copy(SinkFunc(func(Record) error { count++; return nil }), SliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	if count != len(recs) {
		t.Fatalf("sink saw %d of %d", count, len(recs))
	}
	got, err := Collect(SliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) && len(recs) > 0 {
		t.Fatal("collect diverged")
	}
}
