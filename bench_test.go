// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices DESIGN.md calls out and
// micro-benchmarks of the substrates.
//
// The Table/Figure benchmarks run the corresponding experiment end to end
// and report the quantities the paper tabulates (read/write percentages,
// request rates, size-class counts) as benchmark metrics, so
//
//	go test -bench 'Table1|Figure' -benchtime 1x
//
// reproduces the evaluation. Full-scale experiments take seconds to minutes
// of wall time each; the Ablation benchmarks run reduced configurations.
package essio_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"essio"
	"essio/internal/analysis"
	"essio/internal/apps/nbody"
	"essio/internal/apps/ppm"
	"essio/internal/apps/wavelet"
	"essio/internal/blockio"
	"essio/internal/buffercache"
	"essio/internal/disk"
	"essio/internal/driver"
	"essio/internal/ethernet"
	"essio/internal/experiment"
	"essio/internal/kernel"
	"essio/internal/pvm"
	"essio/internal/replay"
	"essio/internal/sim"
	"essio/internal/trace"
)

// runExperiment executes one full-scale experiment per benchmark iteration
// and reports Table 1 metrics, allocation counts, and the number of trace
// records resident in memory at once (per-node buffers plus the merged
// copy) — the quantity the streaming pipeline exists to bound.
func runExperiment(b *testing.B, cfg essio.Config) *essio.Result {
	b.Helper()
	b.ReportAllocs()
	var res *essio.Result
	for i := 0; i < b.N; i++ {
		r, err := essio.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	s := analysis.Summarize(string(cfg.Kind), res.Merged, res.Duration, res.Nodes)
	b.ReportMetric(s.ReadPct, "reads%")
	b.ReportMetric(s.WritePct, "writes%")
	b.ReportMetric(s.ReqPerSec, "req/s/disk")
	b.ReportMetric(s.TotalPerDisk, "total/disk")
	b.ReportMetric(res.Duration.Seconds(), "virtsec")
	b.ReportMetric(recordsResident(res), "records-resident")
	return res
}

// recordsResident counts the trace records a Result holds in memory: the
// per-node capture buffers plus the materialized merged view. A consumer
// that analyzes through Result.Source() instead of Merged halves this.
func recordsResident(res *essio.Result) float64 {
	n := len(res.Merged)
	for _, t := range res.PerNode {
		n += len(t)
	}
	return float64(n)
}

func reportClasses(b *testing.B, res *essio.Result) {
	c := analysis.ClassifySizes(res.Merged)
	total := float64(c.Block1K + c.Page4K + c.Large + c.Other)
	if total == 0 {
		return
	}
	b.ReportMetric(100*float64(c.Block1K)/total, "1KB%")
	b.ReportMetric(100*float64(c.Page4K)/total, "4KB%")
	b.ReportMetric(100*float64(c.Large)/total, "big%")
}

// --- Table 1 ---------------------------------------------------------------

func BenchmarkTable1Baseline(b *testing.B) {
	runExperiment(b, essio.Config{Kind: essio.Baseline, Nodes: 16})
}

func BenchmarkTable1PPM(b *testing.B) {
	runExperiment(b, essio.Config{Kind: essio.PPM, Nodes: 16})
}

func BenchmarkTable1Wavelet(b *testing.B) {
	runExperiment(b, essio.Config{Kind: essio.Wavelet, Nodes: 16})
}

func BenchmarkTable1NBody(b *testing.B) {
	runExperiment(b, essio.Config{Kind: essio.NBody, Nodes: 16})
}

// --- Figures ----------------------------------------------------------------

// BenchmarkFigure1Baseline regenerates the baseline sector-vs-time scatter.
func BenchmarkFigure1Baseline(b *testing.B) {
	res := runExperiment(b, essio.Config{Kind: essio.Baseline, Nodes: 16})
	pts := analysis.SectorSeries(res.Merged)
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkFigure2PPM regenerates the PPM request-size series.
func BenchmarkFigure2PPM(b *testing.B) {
	res := runExperiment(b, essio.Config{Kind: essio.PPM, Nodes: 16})
	reportClasses(b, res)
}

// BenchmarkFigure3Wavelet regenerates the wavelet request-size series and
// reports the largest streaming request.
func BenchmarkFigure3Wavelet(b *testing.B) {
	res := runExperiment(b, essio.Config{Kind: essio.Wavelet, Nodes: 16})
	reportClasses(b, res)
	maxKB := 0
	for _, r := range res.Merged {
		if r.KB() > maxKB {
			maxKB = r.KB()
		}
	}
	b.ReportMetric(float64(maxKB), "maxKB")
}

// BenchmarkFigure4NBody regenerates the N-body request-size series.
func BenchmarkFigure4NBody(b *testing.B) {
	res := runExperiment(b, essio.Config{Kind: essio.NBody, Nodes: 16})
	reportClasses(b, res)
}

// BenchmarkFigure5Combined regenerates the combined request-size series.
func BenchmarkFigure5Combined(b *testing.B) {
	res := runExperiment(b, essio.Config{Kind: essio.Combined, Nodes: 16})
	reportClasses(b, res)
	maxKB := 0
	for _, r := range res.Merged {
		if r.KB() > maxKB {
			maxKB = r.KB()
		}
	}
	b.ReportMetric(float64(maxKB), "maxKB")
}

// BenchmarkFigure6Combined regenerates the combined sector scatter.
func BenchmarkFigure6Combined(b *testing.B) {
	res := runExperiment(b, essio.Config{Kind: essio.Combined, Nodes: 16})
	low := 0
	for _, r := range res.Merged {
		if r.Sector < 200000 {
			low++
		}
	}
	b.ReportMetric(100*float64(low)/float64(len(res.Merged)), "low-sector%")
}

// BenchmarkFigure7Spatial regenerates the spatial-locality bands and
// reports the Pareto concentration.
func BenchmarkFigure7Spatial(b *testing.B) {
	res := runExperiment(b, essio.Config{Kind: essio.Combined, Nodes: 16})
	bands := analysis.SpatialBands(res.Merged, 100000, res.DiskSectors)
	b.ReportMetric(100*analysis.Pareto(bands, 0.8), "bands-for-80%")
}

// BenchmarkFigure8Temporal regenerates the per-sector heat and reports the
// two hottest sectors of disk 0.
func BenchmarkFigure8Temporal(b *testing.B) {
	res := runExperiment(b, essio.Config{Kind: essio.Combined, Nodes: 16})
	heat := analysis.TemporalHeat(analysis.FilterNode(res.Merged, 0), res.Duration)
	hot := analysis.Hottest(heat, 2)
	if len(hot) == 2 {
		b.ReportMetric(float64(hot[0].Sector), "hot1-sector")
		b.ReportMetric(float64(hot[1].Sector), "hot2-sector")
	}
}

// --- Ablations ---------------------------------------------------------------

// ablationConfig is a reduced wavelet workload against which the design
// knobs are toggled: 2 nodes, full-size application.
func ablationConfig() essio.Config {
	cfg := essio.Config{Kind: essio.Wavelet, Nodes: 2}
	w := wavelet.DefaultParams()
	w.Iterations = 24
	cfg.Wavelet = w
	return cfg
}

// BenchmarkAblationNoMerge disables elevator merging: everything above the
// block/page size must disappear from the request mix.
func BenchmarkAblationNoMerge(b *testing.B) {
	cfg := ablationConfig()
	cfg.Node = func(i int) kernel.Config {
		c := kernel.DefaultConfig(uint8(i))
		c.MaxRequestSectors = -1
		return c
	}
	res := runExperiment(b, cfg)
	big := 0
	for _, r := range res.Merged {
		if r.KB() > 4 {
			big++
		}
	}
	b.ReportMetric(float64(big), ">4KB-reqs")
}

// BenchmarkAblationReadahead sweeps the read-ahead window; the 16 KB
// streaming class should track it.
func BenchmarkAblationReadahead(b *testing.B) {
	for _, ra := range []int{0, 4, 16, 32} {
		ra := ra
		b.Run(map[int]string{0: "off", 4: "4KB", 16: "16KB", 32: "32KB"}[ra], func(b *testing.B) {
			cfg := ablationConfig()
			cfg.Node = func(i int) kernel.Config {
				c := kernel.DefaultConfig(uint8(i))
				c.ReadAheadBlocks = ra
				return c
			}
			res := runExperiment(b, cfg)
			maxKB := 0
			for _, r := range res.Merged {
				if r.Op == trace.Read && r.KB() > maxKB {
					maxKB = r.KB()
				}
			}
			b.ReportMetric(float64(maxKB), "max-read-KB")
		})
	}
}

// BenchmarkAblationWriteThrough compares write-back against write-through.
func BenchmarkAblationWriteThrough(b *testing.B) {
	for _, wt := range []bool{false, true} {
		wt := wt
		name := "writeback"
		if wt {
			name = "writethrough"
		}
		b.Run(name, func(b *testing.B) {
			cfg := ablationConfig()
			cfg.Node = func(i int) kernel.Config {
				c := kernel.DefaultConfig(uint8(i))
				c.WriteThrough = wt
				return c
			}
			res := runExperiment(b, cfg)
			writes := 0
			for _, r := range res.Merged {
				if r.Op == trace.Write {
					writes++
				}
			}
			b.ReportMetric(float64(writes), "writes")
		})
	}
}

// BenchmarkAblationSelfTrace measures how much of the write traffic is the
// instrumentation's own trace logging.
func BenchmarkAblationSelfTrace(b *testing.B) {
	for _, off := range []bool{false, true} {
		off := off
		name := "selftrace-on"
		if off {
			name = "selftrace-off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := essio.Config{Kind: essio.Baseline, Nodes: 2, BaselineDuration: 600 * essio.Second}
			cfg.Node = func(i int) kernel.Config {
				c := kernel.DefaultConfig(uint8(i))
				c.DisableSelfTrace = off
				return c
			}
			runExperiment(b, cfg)
		})
	}
}

// BenchmarkAblationMemory sweeps node RAM; the 4 KB paging class intensity
// should fall as memory grows.
func BenchmarkAblationMemory(b *testing.B) {
	for _, mb := range []int{8, 16, 32} {
		mb := mb
		b.Run(map[int]string{8: "8MB", 16: "16MB", 32: "32MB"}[mb], func(b *testing.B) {
			cfg := ablationConfig()
			cfg.Node = func(i int) kernel.Config {
				c := kernel.DefaultConfig(uint8(i))
				c.MemoryBytes = mb << 20
				return c
			}
			res := runExperiment(b, cfg)
			reportClasses(b, res)
		})
	}
}

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkDiskService(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Close()
	d := disk.New(e, disk.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sector := uint32((i * 9973) % 1000000)
		if _, err := d.Service(sector, 8, i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkElevatorSubmit(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Close()
	q := blockio.New(e)
	q.SetStart(func(r *blockio.Request) {
		e.After(sim.Millisecond, func() { q.Done(r, nil) })
	})
	buf := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Submit(uint32((i*2)%100000), buf, true, trace.OriginData); err != nil {
			b.Fatal(err)
		}
		if i%64 == 0 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}

func BenchmarkTraceMarshal(b *testing.B) {
	r := trace.Record{Time: 123456, Sector: 99999, Count: 8, Op: trace.Write}
	buf := make([]byte, trace.RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Marshal(buf)
		if _, err := trace.UnmarshalRecord(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineEvents(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(sim.Microsecond, func() {})
		if i%1024 == 0 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}

// BenchmarkEngineStep prices one pop-dispatch cycle of the typed 4-ary
// event heap with a standing event population (the free-list fast path:
// every fired event is recycled into the next schedule).
func BenchmarkEngineStep(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Close()
	const standing = 1024
	var tick func()
	tick = func() { e.After(sim.Microsecond, tick) }
	for i := 0; i < standing; i++ {
		e.After(sim.Duration(i+1)*sim.Microsecond, tick)
	}
	b.ResetTimer()
	for e.EventsFired() < uint64(b.N) {
		e.Run(e.Now().Add(sim.Millisecond))
	}
}

// BenchmarkE1Sharded runs the PPM experiment (the paper's first
// application measurement) on a 64-node cluster, sequential versus
// sharded across every CPU, so recorded artifacts track the scaling of
// the conservative-lookahead engine. The two variants produce
// byte-identical results (asserted by internal/experiment's shard
// tests); on a multi-core runner the sharded one is expected to be
// at least twice as fast.
func BenchmarkE1Sharded(b *testing.B) {
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiment.SmallConfig(experiment.PPM, 64)
				cfg.Shards = shards
				res, err := experiment.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.Merged)), "records")
			}
		})
	}
}

func BenchmarkWaveletTransform512(b *testing.B) {
	img := wavelet.SyntheticImage(512, 1)
	for i := 0; i < b.N; i++ {
		g, err := wavelet.FromBytes(img, 512)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Forward(5, wavelet.D4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPPMStep240x480(b *testing.B) {
	g := ppm.NewGrid(240, 480)
	g.InitBlast(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step(g.CFL(0.4))
	}
}

func BenchmarkNBodyStep8K(b *testing.B) {
	s := nbody.NewPlummer(8192, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(0.01)
	}
	b.ReportMetric(float64(s.Interactions)/float64(b.N), "interactions/step")
}

func BenchmarkExperimentSmallPPM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(experiment.SmallConfig(experiment.PPM, 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeTrace prices the per-request I/O journal on a
// whole experiment: the small PPM run end to end with the journal off
// versus collecting at obs trace, the trace arm also exporting the
// Chrome JSON and folding the latency-breakdown lens, since that is
// the work a tracing user actually pays for. The off arm must be
// indistinguishable from an untraced run (one level comparison per
// would-be event), and DESIGN.md budgets the trace arm at ≤10% over
// it; the events/op metric sizes the journal the run produces.
func BenchmarkCharacterizeTrace(b *testing.B) {
	for _, lv := range []struct {
		name  string
		level essio.ObsLevel
	}{
		{"off", essio.ObsOff},
		{"trace", essio.ObsTrace},
	} {
		b.Run(lv.name, func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				cfg := essio.SmallConfig(essio.PPM, 2)
				cfg.ObsLevel = lv.level
				res, err := essio.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if lv.level == essio.ObsTrace {
					if len(res.IOTrace) == 0 {
						b.Fatal("trace-level run journaled no events")
					}
					if err := essio.WriteChromeTrace(io.Discard, res.IOTrace); err != nil {
						b.Fatal(err)
					}
					_ = essio.ComputeIOBreakdown(res.IOTrace)
				}
				events = len(res.IOTrace)
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

func BenchmarkEthernetTransfer(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Close()
	net := ethernet.New(e, ethernet.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Send(1500, func() {}); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}

func BenchmarkPVMBarrier16(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Close()
	pv := pvm.New(e, ethernet.New(e, ethernet.DefaultParams()))
	tasks := make([]*pvm.Task, 16)
	for i := range tasks {
		tasks[i] = pv.Enroll(i)
	}
	g := pv.NewGroup(tasks)
	b.ResetTimer()
	rounds := 0
	for i := range tasks {
		tk := tasks[i]
		e.Spawn("m", func(p *sim.Proc) {
			for r := 0; r < b.N; r++ {
				if err := g.Barrier(p, tk); err != nil {
					b.Error(err)
					return
				}
			}
			rounds++
		})
	}
	e.RunUntilIdle()
	if rounds != 16 {
		b.Fatalf("rounds = %d", rounds)
	}
}

func BenchmarkBufferCacheHit(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Close()
	d := disk.New(e, disk.DefaultParams())
	q := blockio.New(e)
	drv := driver.New(e, d, q, 0, trace.NewRing(1024))
	drv.SetLevel(driver.LevelOff)
	bc := buffercache.New(e, q, 256)
	e.Spawn("warm", func(p *sim.Proc) {
		if _, err := bc.ReadBlock(p, 7, trace.OriginData); err != nil {
			b.Error(err)
		}
	})
	e.RunUntilIdle()
	b.ResetTimer()
	e.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := bc.ReadBlock(p, 7, trace.OriginData); err != nil {
				b.Error(err)
				return
			}
		}
	})
	e.RunUntilIdle()
}

func BenchmarkReplayThroughput(b *testing.B) {
	// Build a synthetic 1000-request trace once, replay per iteration.
	var recs []trace.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, trace.Record{
			Time: sim.Time(i) * sim.Time(sim.Millisecond) * 50, Sector: uint32((i % 100) * 64),
			Count: 2, Op: trace.Write, Origin: trace.OriginData,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Replay(recs, replay.Config{ClosedLoop: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Streaming pipeline benchmarks -----------------------------------------
//
// These quantify the memory win of the Source/Sink path: the batch variants
// materialize a merged slice before analyzing, while the streaming variants
// hold one buffered record per input and fold each record into accumulators
// as it is produced.

// benchTraces builds nNodes per-node traces of perNode records each, sorted
// by time within each node like real driver captures.
func benchTraces(nNodes, perNode int) [][]trace.Record {
	traces := make([][]trace.Record, nNodes)
	for n := range traces {
		recs := make([]trace.Record, perNode)
		for i := range recs {
			recs[i] = trace.Record{
				Time:   sim.Time(i*nNodes+n) * sim.Time(sim.Millisecond),
				Node:   uint8(n),
				Sector: uint32((i * 64) % 200000),
				Count:  uint16(2 + i%8),
				Op:     trace.Op(i % 2),
				Origin: trace.OriginData,
			}
		}
		traces[n] = recs
	}
	return traces
}

func BenchmarkMergeBatch(b *testing.B) {
	traces := benchTraces(16, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := trace.Merge(traces...)
		if len(merged) != 16*4096 {
			b.Fatal("bad merge")
		}
	}
}

func BenchmarkMergeStreaming(b *testing.B) {
	traces := benchTraces(16, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		sink := trace.SinkFunc(func(trace.Record) error { n++; return nil })
		if _, err := trace.Copy(sink, trace.MergeSlices(traces...)); err != nil {
			b.Fatal(err)
		}
		if n != 16*4096 {
			b.Fatal("bad merge")
		}
	}
}

func BenchmarkCharacterizeBatch(b *testing.B) {
	traces := benchTraces(16, 4096)
	merged := trace.Merge(traces...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = essio.Characterize("bench", merged, 70*sim.Second, 16, 4194304)
	}
}

func BenchmarkCharacterizeStreaming(b *testing.B) {
	traces := benchTraces(16, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := essio.NewProfiler("bench", 70*sim.Second, 16, 4194304)
		if _, err := trace.CopyCols(p, trace.ToColSource(trace.MergeSlices(traces...))); err != nil {
			b.Fatal(err)
		}
		_ = p.Profile()
	}
}

// BenchmarkCharacterizeColumnar is BenchmarkCharacterizeStreaming's
// fixture characterized from a columnar trace file: the mmap-backed
// source yields zero-copy column views and the profiler folds them with
// the vectorized AddCols scans, no per-record materialization anywhere.
func BenchmarkCharacterizeColumnar(b *testing.B) {
	traces := benchTraces(16, 4096)
	path := filepath.Join(b.TempDir(), "bench.col")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := essio.NewTraceColWriter(f)
	n, err := trace.Copy(w, trace.MergeSlices(traces...))
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil || n != 16*4096 {
		b.Fatalf("fixture: n=%d err=%v", n, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := essio.OpenTraceFile(path, essio.TraceFormatCol)
		if err != nil {
			b.Fatal(err)
		}
		p := essio.NewProfiler("bench", 70*sim.Second, 16, 4194304)
		if _, err := trace.CopyCols(p, src); err != nil {
			b.Fatal(err)
		}
		_ = p.Profile()
		if err := src.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeParallel shards the per-node traces of the same
// fixture across 1, 2, 4, and 8 workers; every variant produces the exact
// sequential profile.
func BenchmarkCharacterizeParallel(b *testing.B) {
	traces := benchTraces(16, 4096)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(map[int]string{1: "1", 2: "2", 4: "4", 8: "8"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = essio.ProfileParallel("bench", traces, 70*sim.Second, 16, 4194304, workers)
			}
		})
	}
}

// BenchmarkCharacterizeObs prices the observability layer on the
// characterizer's hot path: the streaming pass of
// BenchmarkCharacterizeStreaming with the profiler instrumented at each
// obs level. "none" is the uninstrumented baseline; "off" must be
// indistinguishable from it (one nil-handle check per batch), and
// "counters" must stay within 5% — the budget DESIGN.md commits to for
// always-on counting. "full" adds the batch-length histogram and span
// timing and is allowed to cost more.
func BenchmarkCharacterizeObs(b *testing.B) {
	traces := benchTraces(16, 4096)
	levels := []struct {
		name string
		reg  *essio.ObsRegistry
	}{
		{"none", nil},
		{"off", essio.NewObsRegistry(essio.ObsOff)},
		{"counters", essio.NewObsRegistry(essio.ObsCounters)},
		{"full", essio.NewObsRegistry(essio.ObsFull)},
	}
	for _, lv := range levels {
		b.Run(lv.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := essio.NewProfiler("bench", 70*sim.Second, 16, 4194304)
				if lv.reg != nil {
					p.Instrument(lv.reg)
				}
				if _, err := trace.CopyCols(p, trace.ToColSource(trace.MergeSlices(traces...))); err != nil {
					b.Fatal(err)
				}
				_ = p.Profile()
			}
		})
	}
}
