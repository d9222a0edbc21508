package trace

// The container/heap k-way merge the loser tree replaced, kept verbatim
// as a test oracle and benchmark baseline: the loser tree must reproduce
// its output record for record, and the benchmarks below quantify what
// removing the heap's `any` boxing and two-comparison sift paths bought.

import (
	"container/heap"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"essio/internal/sim"
)

// heapItem is one buffered head record of a merge input.
type heapItem struct {
	rec Record
	src int
}

// recHeap orders items by (Time, Node, Sector) with ties broken by input
// index, through the standard heap interface.
type recHeap []heapItem

func (h recHeap) Len() int { return len(h) }
func (h recHeap) Less(i, j int) bool {
	if less(h[i].rec, h[j].rec) {
		return true
	}
	if less(h[j].rec, h[i].rec) {
		return false
	}
	return h[i].src < h[j].src
}
func (h recHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *recHeap) Push(x any)   { *h = append(*h, x.(heapItem)) }
func (h *recHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// heapMergeSource is the old per-record heap merge.
type heapMergeSource struct {
	srcs []Source
	h    recHeap
	init bool
}

func heapMergeSources(srcs ...Source) Source {
	return &heapMergeSource{srcs: srcs}
}

func (m *heapMergeSource) start() error {
	m.init = true
	for i, s := range m.srcs {
		rec, err := s.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		m.h = append(m.h, heapItem{rec: rec, src: i})
	}
	heap.Init(&m.h)
	return nil
}

func (m *heapMergeSource) Next() (Record, error) {
	if !m.init {
		if err := m.start(); err != nil {
			return Record{}, err
		}
	}
	if len(m.h) == 0 {
		return Record{}, io.EOF
	}
	it := m.h[0]
	rec, err := m.srcs[it.src].Next()
	switch {
	case err == io.EOF:
		heap.Pop(&m.h)
	case err != nil:
		return Record{}, err
	default:
		m.h[0].rec = rec
		heap.Fix(&m.h, 0)
	}
	return it.rec, nil
}

func TestQuickLoserTreeMatchesHeapMergeSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		traces := mkRandTraces(rng)
		for _, tr := range traces {
			sort.SliceStable(tr, func(a, b int) bool { return less(tr[a], tr[b]) })
		}
		mk := func() []Source {
			srcs := make([]Source, len(traces))
			for i, tr := range traces {
				srcs[i] = SliceSource(tr)
			}
			return srcs
		}
		want, err := Collect(heapMergeSources(mk()...))
		if err != nil {
			return false
		}
		got, err := Collect(MergeSources(mk()...))
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

func TestQuickLoserTreeMatchesHeapMergeUnsorted(t *testing.T) {
	// Unsorted inputs go through the Merge normalization on both sides;
	// the loser tree must still match the heap record for record.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		traces := mkRandTraces(rng)
		normalized := make([]Source, len(traces))
		for i, tr := range traces {
			c := make([]Record, len(tr))
			copy(c, tr)
			sort.SliceStable(c, func(a, b int) bool { return less(c[a], c[b]) })
			normalized[i] = SliceSource(c)
		}
		want, err := Collect(heapMergeSources(normalized...))
		if err != nil {
			return false
		}
		got := Merge(traces...)
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// benchMergeTraces builds nNodes sorted per-node traces of perNode records.
func benchMergeTraces(nNodes, perNode int) [][]Record {
	traces := make([][]Record, nNodes)
	for n := range traces {
		recs := make([]Record, perNode)
		for i := range recs {
			recs[i] = Record{
				Time:   sim.Time(i*nNodes+n) * sim.Time(sim.Millisecond),
				Node:   uint8(n),
				Sector: uint32((i * 64) % 200000),
				Count:  uint16(2 + i%8),
				Op:     Op(i % 2),
			}
		}
		traces[n] = recs
	}
	return traces
}

func benchSources(traces [][]Record) []Source {
	srcs := make([]Source, len(traces))
	for i, tr := range traces {
		srcs[i] = SliceSource(tr)
	}
	return srcs
}

// BenchmarkMergeHeap is the old heap merge drained one record per Next.
func BenchmarkMergeHeap(b *testing.B) {
	traces := benchMergeTraces(16, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := drainRecords(heapMergeSources(benchSources(traces)...))
		if err != nil || n != 16*4096 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

// BenchmarkMergeLoserTree is the loser tree drained one record per Next —
// the structural win alone, batching aside.
func BenchmarkMergeLoserTree(b *testing.B) {
	traces := benchMergeTraces(16, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := drainRecords(MergeSources(benchSources(traces)...))
		if err != nil || n != 16*4096 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

func drainRecords(src Source) (int, error) {
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
