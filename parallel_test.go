package essio_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"essio"
)

// TestParallelProfileMatchesSequential runs every experiment kind at small
// scale and requires the multi-core characterization to deep-equal the
// sequential one at 1, 2, and 8 workers — the acceptance criterion of the
// parallel profile driver. The experiments themselves run concurrently.
func TestParallelProfileMatchesSequential(t *testing.T) {
	cfgs := make([]essio.Config, len(essio.Kinds))
	for i, k := range essio.Kinds {
		cfgs[i] = essio.SmallConfig(k, 2)
	}
	results, err := essio.RunConcurrent(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		want := essio.CharacterizeResult(res)
		for _, workers := range []int{1, 2, 8} {
			got := essio.CharacterizeResultParallel(res, workers)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d-worker profile diverged from sequential:\n got %+v\nwant %+v",
					cfgs[i].Kind, workers, got, want)
			}
		}
	}
}

// TestChunkedFileAccumulatorsMatchSequential writes a real merged trace to
// disk, re-reads it as record-aligned chunks, and requires chunk-wise
// accumulators folded with Merge to equal the one-pass accumulators — the
// essanalyze -workers path.
func TestChunkedFileAccumulatorsMatchSequential(t *testing.T) {
	res, err := essio.Run(essio.SmallConfig(essio.Wavelet, 2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wavelet.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := essio.WriteTrace(f, res.Merged); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	seqSum := essio.NewSummaryAcc("t", res.Duration, res.Nodes)
	seqInter := essio.NewInterAccessAcc()
	seqHeat := essio.NewHeatAcc()
	src, err := essio.OpenTraceFile(path, "")
	if err != nil {
		t.Fatal(err)
	}
	seqN, err := essio.CopyTraceCols(essio.TeeSinks(seqSum, seqInter, seqHeat), src)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		chunks, err := essio.OpenTraceFileChunks(path, workers)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]*essio.SummaryAcc, len(chunks))
		inters := make([]*essio.InterAccessAcc, len(chunks))
		heats := make([]*essio.HeatAcc, len(chunks))
		total := 0
		for i, c := range chunks {
			sums[i] = essio.NewSummaryAcc("t", res.Duration, res.Nodes)
			inters[i] = essio.NewInterAccessAcc()
			heats[i] = essio.NewHeatAcc()
			n, err := essio.CopyTraceCols(essio.TeeSinks(sums[i], inters[i], heats[i]), c)
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
		for i := 1; i < len(chunks); i++ {
			sums[0].Merge(sums[i])
			inters[0].Merge(inters[i])
			heats[0].Merge(heats[i])
		}
		if total != seqN {
			t.Fatalf("workers=%d: chunks saw %d records, sequential saw %d", workers, total, seqN)
		}
		if got, want := sums[0].Summary(), seqSum.Summary(); got != want {
			t.Errorf("workers=%d: summary %+v != %+v", workers, got, want)
		}
		gm, gs := inters[0].Result()
		wm, ws := seqInter.Result()
		if gm != wm || gs != ws {
			t.Errorf("workers=%d: inter-access (%v, %d) != (%v, %d)", workers, gm, gs, wm, ws)
		}
		if !reflect.DeepEqual(heats[0].Heat(res.Duration), seqHeat.Heat(res.Duration)) {
			t.Errorf("workers=%d: heat diverged", workers)
		}
	}
}

// TestResultSourceColsMatchMerged pins Result.Source, drained a columnar
// batch at a time, to the merged slice.
func TestResultSourceColsMatchMerged(t *testing.T) {
	res, err := essio.Run(essio.SmallConfig(essio.NBody, 2))
	if err != nil {
		t.Fatal(err)
	}
	c := essio.NewTraceCollector(len(res.Merged))
	n, err := essio.CopyTraceCols(c, essio.ToTraceColSource(res.Source()))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.Merged) || !reflect.DeepEqual(c.Recs, res.Merged) {
		t.Fatalf("batch source streamed %d records, merged has %d", n, len(res.Merged))
	}
}
