package essio_test

import (
	"bytes"
	"strings"
	"testing"

	"essio"
)

// TestPublicAPIEndToEnd exercises the facade the way a downstream user
// would: run an experiment, summarize, render a figure, persist the trace,
// and derive tuning parameters.
func TestPublicAPIEndToEnd(t *testing.T) {
	res, err := essio.Run(essio.SmallConfig(essio.Wavelet, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || len(res.Merged) == 0 {
		t.Fatalf("res = %+v", res)
	}

	s := essio.Summarize("wavelet", res.Merged, res.Duration, res.Nodes)
	if s.Reads+s.Writes != len(res.Merged) {
		t.Fatalf("summary counts wrong: %+v", s)
	}

	fig, err := essio.Figure(3, res)
	if err != nil || !strings.Contains(fig, "Figure 3") {
		t.Fatalf("figure: %v\n%s", err, fig)
	}

	// Binary trace round trip through the facade.
	var buf bytes.Buffer
	if err := essio.WriteTrace(&buf, res.Merged); err != nil {
		t.Fatal(err)
	}
	back, err := essio.ReadTrace(&buf)
	if err != nil || len(back) != len(res.Merged) {
		t.Fatalf("trace round trip: %d vs %d, %v", len(back), len(res.Merged), err)
	}

	prof := essio.CharacterizeResult(res)
	if prof.Summary.Reads != s.Reads {
		t.Fatalf("profile disagrees with summary: %+v", prof.Summary)
	}
	d := prof.Derive(16)
	if d.ReadAheadKB == 0 {
		t.Fatalf("no derived parameters: %+v", d)
	}

	// Locality helpers.
	bands := essio.SpatialBands(res.Merged, 100000, res.DiskSectors)
	if len(bands) == 0 {
		t.Fatal("no bands")
	}
	heat := essio.TemporalHeat(res.Merged, res.Duration)
	if len(essio.Hottest(heat, 3)) == 0 {
		t.Fatal("no heat")
	}
}

// TestPublicAPICustomCluster runs a custom program through the exported
// cluster surface.
func TestPublicAPICustomCluster(t *testing.T) {
	c, err := essio.NewCluster(essio.ClusterConfig{Nodes: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ran := 0
	prog := &essio.Program{
		Name: "probe", ImagePath: "/usr/bin/probe", TextBytes: 8192,
		Main: func(ctx *essio.Process) {
			ctx.ComputeFlops(1e5)
			ran++
		},
	}
	if err := c.Install(prog); err != nil {
		t.Fatal(err)
	}
	procs := c.Launch(prog)
	if _, ok := c.WaitAll(procs, 10*essio.Minute); !ok {
		t.Fatal("did not finish")
	}
	if ran != 2 {
		t.Fatalf("ran on %d nodes", ran)
	}
}

func TestDefaultParamsExported(t *testing.T) {
	if p := essio.DefaultPPMParams(); p.NX != 240 || p.NY != 480 || p.Grids != 4 {
		t.Fatalf("ppm params = %+v", p)
	}
	if w := essio.DefaultWaveletParams(); w.N != 512 || w.Levels != 5 {
		t.Fatalf("wavelet params = %+v", w)
	}
	if n := essio.DefaultNBodyParams(); n.Particles != 8192 {
		t.Fatalf("nbody params = %+v", n)
	}
	if cfg := essio.DefaultNodeConfig(3); cfg.MemoryBytes != 16<<20 || cfg.NodeID != 3 {
		t.Fatalf("node config = %+v", cfg)
	}
}

// TestPublicAPIStreaming exercises the streaming surface through the
// facade and pins the acceptance criterion of the pipeline refactor:
// traces written and analyzed through the Source/Sink path are
// byte-identical / value-identical to the batch path.
func TestPublicAPIStreaming(t *testing.T) {
	res, err := essio.Run(essio.SmallConfig(essio.Wavelet, 2))
	if err != nil {
		t.Fatal(err)
	}

	// Batch encode vs streaming encode of the same trace: same bytes.
	var batch bytes.Buffer
	if err := essio.WriteTrace(&batch, res.Merged); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	w := essio.NewTraceWriter(&streamed)
	n, err := essio.CopyTrace(w, res.Source())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n != len(res.Merged) {
		t.Fatalf("streamed %d records, merged has %d", n, len(res.Merged))
	}
	if !bytes.Equal(batch.Bytes(), streamed.Bytes()) {
		t.Fatal("streaming encoder output differs from batch encoder")
	}

	// Streaming decode + single-pass analysis vs the batch metrics.
	sum := essio.NewSummaryAcc("wavelet", res.Duration, res.Nodes)
	hist := essio.NewSizeHistAcc()
	if _, err := essio.CopyTraceCols(essio.TeeSinks(sum, hist), essio.NewTraceReader(&streamed)); err != nil {
		t.Fatal(err)
	}
	if got, want := sum.Summary(), essio.Summarize("wavelet", res.Merged, res.Duration, res.Nodes); got != want {
		t.Fatalf("streamed summary %+v != batch %+v", got, want)
	}
}
