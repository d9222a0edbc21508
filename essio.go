// Package essio reproduces Berry & El-Ghazawi's IPPS 1996 study, "An
// Experimental Study of Input/Output Characteristics of NASA Earth and
// Space Sciences Applications", as a deterministic full-system simulation:
// a 16-node Beowulf cluster of 486 workstations, a Linux-1.x-style kernel
// I/O path (1 KB buffer cache, 4 KB demand paging, ext2-like filesystem,
// merging elevator), an instrumented IDE disk driver streaming trace
// records through a proc filesystem, and the three NASA ESS applications
// (PPM gas dynamics, wavelet image decomposition, Barnes–Hut N-body) that
// provide the workload.
//
// The package re-exports the library's public surface: run the paper's
// experiments, collect driver-level traces, and compute every table and
// figure of the evaluation.
//
// Quickstart:
//
//	res, err := essio.Run(essio.Config{Kind: essio.Wavelet, Nodes: 16})
//	if err != nil { ... }
//	fmt.Println(essio.Summarize("wavelet", res.Merged, res.Duration, res.Nodes))
//	fig, _ := essio.Figure(3, res)
//	fmt.Println(fig)
package essio

import (
	"io"

	"essio/internal/analysis"
	"essio/internal/apps/nbody"
	"essio/internal/apps/ppm"
	"essio/internal/apps/wavelet"
	"essio/internal/cluster"
	"essio/internal/core"
	"essio/internal/disk"
	"essio/internal/experiment"
	"essio/internal/iotrace"
	"essio/internal/kernel"
	"essio/internal/model"
	"essio/internal/obs"
	"essio/internal/pious"
	"essio/internal/pvm"
	"essio/internal/replay"
	"essio/internal/sim"
	"essio/internal/synth"
	"essio/internal/trace"
	"essio/internal/vfs"
)

// Experiment kinds, in paper order.
const (
	Baseline = experiment.Baseline
	PPM      = experiment.PPM
	Wavelet  = experiment.Wavelet
	NBody    = experiment.NBody
	Combined = experiment.Combined
)

// Kind selects one of the paper's experiments.
type Kind = experiment.Kind

// Kinds lists every experiment in paper order.
var Kinds = experiment.Kinds

// Config parameterizes an experiment run.
type Config = experiment.Config

// Result is a completed experiment with its traces.
type Result = experiment.Result

// Run executes one of the paper's experiments on a freshly booted cluster.
func Run(cfg Config) (*Result, error) { return experiment.Run(cfg) }

// SmallConfig returns a scaled-down configuration for quick runs.
func SmallConfig(kind Kind, nodes int) Config { return experiment.SmallConfig(kind, nodes) }

// Repeated aggregates one experiment across several seeds.
type Repeated = experiment.Repeated

// RunSeeds executes cfg once per seed on a bounded worker pool (seeds run
// concurrently; results and aggregates are in seed order) and aggregates
// Table 1 metrics.
func RunSeeds(cfg Config, seeds []int64) (*Repeated, error) {
	return experiment.RunSeeds(cfg, seeds)
}

// IndexedError reports which config of a concurrent batch failed.
type IndexedError = experiment.IndexedError

// RunConcurrent executes several experiment configs on a bounded worker
// pool and returns results in input order; the lowest-index failure wins.
func RunConcurrent(cfgs []Config, workers int) ([]*Result, error) {
	return experiment.RunConcurrent(cfgs, workers)
}

// RunConcurrentObs is RunConcurrent with scheduler observability recorded
// into reg (runs, failures, virtual time simulated, worker occupancy).
func RunConcurrentObs(cfgs []Config, workers int, reg *ObsRegistry) ([]*Result, error) {
	return experiment.RunConcurrentObs(cfgs, workers, reg)
}

// RunAll executes one experiment per kind concurrently and returns the
// results keyed by kind; mk builds the config for each kind.
func RunAll(kinds []Kind, mk func(Kind) Config) (map[Kind]*Result, error) {
	return experiment.RunAll(kinds, mk)
}

// RunAllWorkers is RunAll on a pool of the given size; workers <= 0 uses
// GOMAXPROCS.
func RunAllWorkers(kinds []Kind, mk func(Kind) Config, workers int) (map[Kind]*Result, error) {
	return experiment.RunAllWorkers(kinds, mk, workers)
}

// Table1 renders the paper's Table 1 from a set of experiment results.
func Table1(results map[Kind]*Result) string { return experiment.Table1(results) }

// Figure renders one of the paper's Figures 1–8 as an ASCII plot.
func Figure(num int, res *Result) (string, error) { return experiment.Figure(num, res) }

// FigureSVG renders one of the paper's Figures 1–8 as an SVG document.
func FigureSVG(num int, res *Result) (string, error) { return experiment.FigureSVG(num, res) }

// KindForFigure reports which experiment a figure number requires.
func KindForFigure(num int) (Kind, error) { return experiment.KindForFigure(num) }

// SizeClassReport summarizes request-size classes and ground-truth origins.
func SizeClassReport(res *Result) string { return experiment.SizeClassReport(res) }

// LevelsReport contrasts library-level (explicit application I/O) against
// driver-level (total disk load) instrumentation for an experiment.
func LevelsReport(res *Result) string { return experiment.LevelsReport(res) }

// AppIOEvent is one application-visible file operation.
type AppIOEvent = vfs.IOEvent

// Trace records and analysis types.
type (
	// Record is one instrumented driver observation.
	Record = trace.Record
	// Origin tags the kernel mechanism behind a request.
	Origin = trace.Origin
	// Op is the read/write flag.
	Op = trace.Op
	// Summary is a Table 1 row.
	Summary = analysis.Summary
	// Point is a (time, value) observation for scatter figures.
	Point = analysis.Point
	// Band is a spatial-locality bucket.
	Band = analysis.Band
	// Heat is per-sector access frequency.
	Heat = analysis.Heat
	// Duration is virtual time (microseconds).
	Duration = sim.Duration
	// Time is absolute virtual time.
	Time = sim.Time
)

// Operation and origin constants.
const (
	Read  = trace.Read
	Write = trace.Write

	OriginData   = trace.OriginData
	OriginMeta   = trace.OriginMeta
	OriginPaging = trace.OriginPaging
	OriginSwap   = trace.OriginSwap
	OriginLog    = trace.OriginLog
	OriginTrace  = trace.OriginTrace

	// Second is one virtual second.
	Second = sim.Second
	// Minute is one virtual minute.
	Minute = sim.Minute
)

// Analysis helpers.
var (
	// Summarize builds a Table 1 row from a trace.
	Summarize = analysis.Summarize
	// SizeSeries extracts request-size-vs-time points (Figures 2–5).
	SizeSeries = analysis.SizeSeries
	// SectorSeries extracts sector-vs-time points (Figures 1 and 6).
	SectorSeries = analysis.SectorSeries
	// SizeHistogram counts requests per KB class.
	SizeHistogram = analysis.SizeHistogram
	// SpatialBands buckets requests into sector bands (Figure 7).
	SpatialBands = analysis.SpatialBands
	// Pareto reports the band fraction carrying a traffic fraction.
	Pareto = analysis.Pareto
	// TemporalHeat computes per-sector access frequency (Figure 8).
	TemporalHeat = analysis.TemporalHeat
	// Hottest returns the most frequently accessed sectors.
	Hottest = analysis.Hottest
	// InterAccess averages time between accesses to the same sector.
	InterAccess = analysis.InterAccess
	// MergeTraces combines per-node traces in time order.
	MergeTraces = trace.Merge
	// PendingStats computes driver queue-depth statistics.
	PendingStats = analysis.PendingStats
	// WriteTrace and ReadTrace are the binary trace codec;
	// WriteTraceText and ReadTraceText are the tab-separated form.
	WriteTrace     = trace.WriteAll
	ReadTrace      = trace.ReadAll
	WriteTraceText = trace.WriteText
	ReadTraceText  = trace.ReadText
)

// Streaming trace pipeline: pull Sources, push Sinks, columnar batches,
// and incremental analysis accumulators. One pass over a Source — a trace
// file, a k-way node merge, a Result view — can feed any number of
// accumulators through TeeSinks, in bounded memory regardless of trace
// length. Columnar batches are the one batch transport: decoders and the
// merge serve them natively, and ToTraceColSource transposes any other
// Source at the row edge.
type (
	// TraceSource is a pull iterator over trace records (io.EOF ends it).
	TraceSource = trace.Source
	// TraceSink is a push consumer of trace records.
	TraceSink = trace.Sink
	// TraceCollector is a Sink materializing the stream as a slice.
	TraceCollector = trace.Collector
	// TraceWriter is the streaming binary encoder (a Sink and a ColSink;
	// call Flush).
	TraceWriter = trace.Writer
	// TraceTextWriter is the streaming text encoder (a Sink; call Flush).
	TraceTextWriter = trace.TextWriter
	// TraceColBatch is a batch of records in struct-of-arrays layout:
	// one dense slice per record field.
	TraceColBatch = trace.ColBatch
	// TraceColSource is a pull iterator over columnar batch views.
	TraceColSource = trace.ColSource
	// TraceColSink is a push consumer of columnar batch views.
	TraceColSink = trace.ColSink
	// TraceColWriter is the streaming columnar encoder (a Sink and a
	// ColSink; call Flush).
	TraceColWriter = trace.ColWriter
	// TraceColReader is the streaming columnar decoder (a Source and a
	// ColSource).
	TraceColReader = trace.ColReader

	// SummaryAcc incrementally builds a Table 1 row.
	SummaryAcc = analysis.SummaryAcc
	// SizeHistAcc incrementally counts requests per KB class.
	SizeHistAcc = analysis.SizeHistAcc
	// SizeClassAcc incrementally buckets the paper's size categories.
	SizeClassAcc = analysis.SizeClassAcc
	// OriginAcc incrementally counts ground-truth origins.
	OriginAcc = analysis.OriginAcc
	// BandsAcc incrementally builds the spatial-locality bands.
	BandsAcc = analysis.BandsAcc
	// HeatAcc incrementally counts per-sector accesses.
	HeatAcc = analysis.HeatAcc
	// InterAccessAcc incrementally averages same-sector revisit gaps.
	InterAccessAcc = analysis.InterAccessAcc
	// PendingAcc incrementally summarizes driver queue depth.
	PendingAcc = analysis.PendingAcc
	// Profiler incrementally builds a complete workload Profile.
	Profiler = core.Profiler
)

// Streaming constructors and pipeline plumbing.
var (
	// NewTraceReader decodes the binary format one record per Next or a
	// columnar batch per NextCols.
	NewTraceReader = trace.NewReader
	// NewTraceWriter encodes the binary format incrementally.
	NewTraceWriter = trace.NewWriter
	// NewTraceTextReader parses the tab-separated format incrementally.
	NewTraceTextReader = trace.NewTextReader
	// NewTraceTextWriter writes the tab-separated format incrementally.
	NewTraceTextWriter = trace.NewTextWriter
	// SliceTraceSource adapts an in-memory trace to a Source.
	SliceTraceSource = trace.SliceSource
	// CollectTrace drains a Source into a slice.
	CollectTrace = trace.Collect
	// CollectTraceSize drains a Source into a slice pre-sized for a known
	// record count.
	CollectTraceSize = trace.CollectSize
	// NewTraceCollector returns a Collector pre-sized for a known record
	// count.
	NewTraceCollector = trace.NewCollector
	// CopyTrace pumps a Source into a Sink, moving columnar batches when
	// the sink accepts them.
	CopyTrace = trace.Copy
	// NewTraceColReader decodes the columnar format incrementally.
	NewTraceColReader = trace.NewColReader
	// NewTraceColWriter encodes the columnar format incrementally.
	NewTraceColWriter = trace.NewColWriter
	// SliceTraceColSource adapts an in-memory columnar batch to a Source
	// (also a ColSource serving zero-copy column views).
	SliceTraceColSource = trace.SliceColSource
	// CopyTraceCols pumps a ColSource into a ColSink at column
	// granularity, never materializing records.
	CopyTraceCols = trace.CopyCols
	// ToTraceColSource adapts any Source to columnar reads: pass-through
	// for decoders, file sources, and merges, the row-to-column transpose
	// for everything else.
	ToTraceColSource = trace.ToColSource
	// WriteTraceCol and ReadTraceCol are the whole-trace columnar codec
	// conveniences, siblings of WriteTrace/ReadTrace.
	WriteTraceCol = trace.WriteCol
	ReadTraceCol  = trace.ReadCol
	// TeeSinks fans one columnar stream out to several sinks.
	TeeSinks = trace.Tee
	// MergeTraceSources k-way-merges ordered sources in (Time, Node,
	// Sector) order, holding one record per input; the merge is also a
	// ColSource.
	MergeTraceSources = trace.MergeSources
	// MergeTraceSlices streams the k-way merge of in-memory traces.
	MergeTraceSlices = trace.MergeSlices

	// Accumulator constructors (each result method finalizes the metric).
	NewSummaryAcc     = analysis.NewSummaryAcc
	NewSizeHistAcc    = analysis.NewSizeHistAcc
	NewSizeClassAcc   = analysis.NewSizeClassAcc
	NewOriginAcc      = analysis.NewOriginAcc
	NewBandsAcc       = analysis.NewBandsAcc
	NewHeatAcc        = analysis.NewHeatAcc
	NewInterAccessAcc = analysis.NewInterAccessAcc
	NewPendingAcc     = analysis.NewPendingAcc
	// NewProfiler streams the full characterization in one pass.
	NewProfiler = core.NewProfiler
)

// Cluster access for custom workloads (see examples/customapp).
type (
	// Cluster is the simulated Beowulf machine.
	Cluster = cluster.Cluster
	// ClusterConfig configures the machine.
	ClusterConfig = cluster.Config
	// Program is an executable the cluster can run.
	Program = kernel.Program
	// Process is a running program instance.
	Process = kernel.Process
	// NodeConfig is a node's hardware/policy configuration.
	NodeConfig = kernel.Config
)

// NewCluster boots a cluster for custom workloads.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// DefaultNodeConfig returns the Beowulf prototype node configuration.
func DefaultNodeConfig(id uint8) NodeConfig { return kernel.DefaultConfig(id) }

// Application parameter types (the paper's three workloads).
type (
	// PPMParams configures the piecewise parabolic method code.
	PPMParams = ppm.Params
	// WaveletParams configures the wavelet decomposition code.
	WaveletParams = wavelet.Params
	// NBodyParams configures the oct-tree N-body code.
	NBodyParams = nbody.Params
)

// Default application parameters as the study configured them.
var (
	DefaultPPMParams     = ppm.DefaultParams
	DefaultWaveletParams = wavelet.DefaultParams
	DefaultNBodyParams   = nbody.DefaultParams
)

// PIOUS parallel file system and PVM message passing, for workloads that
// use coordinated parallel I/O (see examples/pious).
type (
	// Pious is the parallel file service over the cluster's node disks.
	Pious = pious.System
	// PiousFile is an open declustered file.
	PiousFile = pious.File
	// PVMTask is a message-passing endpoint.
	PVMTask = pvm.Task
	// Proc is a simulated process handle (Process.P() returns one).
	Proc = sim.Proc
)

// NewPious starts PIOUS data servers on every node of a cluster.
func NewPious(c *Cluster) *Pious {
	return pious.New(c.PVM, c.NodeFS())
}

// The workload characterizer — the study's primary contribution as a
// reusable library.
type (
	// Profile is the complete characterization of a traced workload.
	Profile = core.Profile
	// DesignParams is the tuning parameter set derived from a profile.
	DesignParams = core.DesignParams
)

// Characterize computes a full workload profile from a merged trace.
func Characterize(label string, recs []Record, duration Duration, nodes int, diskSectors uint32) *Profile {
	return core.Characterize(label, recs, duration, nodes, diskSectors)
}

// CharacterizeResult profiles a completed experiment.
func CharacterizeResult(res *Result) *Profile {
	return core.Characterize(string(res.Kind), res.Merged, res.Duration, res.Nodes, res.DiskSectors)
}

// ProfileParallel computes the same Profile as Characterize of the merged
// per-node traces, sharding the nodes across workers (workers <= 0 uses
// GOMAXPROCS). The result is deterministic and identical to the
// sequential pass.
func ProfileParallel(label string, perNode [][]Record, duration Duration, nodes int, diskSectors uint32, workers int) *Profile {
	return core.ProfileParallel(label, perNode, duration, nodes, diskSectors, workers)
}

// ProfileParallelObs is ProfileParallel with pipeline observability: each
// worker collects into a private registry at reg's level, merged into reg
// after the workers join, so the metrics are byte-identical at any worker
// count. A nil reg runs unobserved.
func ProfileParallelObs(label string, perNode [][]Record, duration Duration, nodes int, diskSectors uint32, workers int, reg *ObsRegistry) *Profile {
	return core.ProfileParallelObs(label, perNode, duration, nodes, diskSectors, workers, reg)
}

// CharacterizeResultParallel profiles a completed experiment on several
// cores, producing exactly CharacterizeResult's profile.
func CharacterizeResultParallel(res *Result, workers int) *Profile {
	return core.ProfileParallel(string(res.Kind), res.PerNode, res.Duration, res.Nodes, res.DiskSectors, workers)
}

// Trace replay against alternative configurations (tuning evaluation).
type (
	// ReplayConfig selects the hardware/queue configuration to replay
	// a captured trace against.
	ReplayConfig = replay.Config
	// ReplayReport summarizes a replay.
	ReplayReport = replay.Report
	// DiskParams describes a drive model.
	DiskParams = disk.Params
)

// ReplayTrace re-executes a captured trace against cfg.
func ReplayTrace(recs []Record, cfg ReplayConfig) (ReplayReport, error) {
	return replay.Replay(recs, cfg)
}

// DefaultDiskParams is the Beowulf node drive model.
func DefaultDiskParams() DiskParams { return disk.DefaultParams() }

// Trace file access: the shared open/sniff path of essanalyze, essreplay,
// and esssynth.
type (
	// TraceFileSource is a Source reading a trace file (call Close).
	TraceFileSource = trace.FileSource
	// TraceReaderSource is a Source decoding any io.Reader without
	// seeking (stdin pipelines, network streams, HTTP bodies).
	TraceReaderSource = trace.ReaderSource
)

// NewTraceReaderSource wraps an io.Reader as a streaming trace source;
// format is "bin", "text", "col", or "auto"/"" to sniff the encoding by
// peeking (no Seek required). It is the ingest path of the essd daemon
// and the `-i -` stdin path of essanalyze/essreplay.
func NewTraceReaderSource(r io.Reader, format string) (*TraceReaderSource, error) {
	return trace.NewReaderSource(r, format)
}

// Trace file format names for OpenTraceFile.
const (
	TraceFormatBinary = trace.FormatBinary
	TraceFormatText   = trace.FormatText
	TraceFormatCol    = trace.FormatCol
	TraceFormatAuto   = trace.FormatAuto
)

// OpenTraceFile opens a trace file as a streaming source; format is
// "bin", "text", "col", or "auto"/"" to sniff the encoding. Columnar
// files are memory-mapped where the platform allows, yielding zero-copy
// column views.
func OpenTraceFile(path, format string) (*TraceFileSource, error) {
	return trace.OpenFileSource(path, format)
}

// OpenTraceFileChunks opens a binary trace file as n record-aligned,
// time-contiguous chunk sources covering the file in order, so workers
// can analyze one file in parallel and fold their accumulators back
// together with the exact Merge methods. It fails for text- or
// columnar-encoded and truncated files; callers fall back to the
// sequential OpenTraceFile path (for columnar files that fallback is the
// mmap-backed fast path).
func OpenTraceFileChunks(path string, n int) ([]*TraceFileSource, error) {
	return trace.OpenFileChunks(path, n)
}

// Workload modeling and synthetic trace generation: fit a generative
// WorkloadModel from any trace source in one streaming pass, sample
// unbounded synthetic traces from it with scaling knobs, and measure how
// far two workloads diverge (see cmd/esssynth and examples/synthesis).
type (
	// WorkloadModel is a fitted, JSON-serializable workload description.
	WorkloadModel = model.WorkloadModel
	// ModelHistBin is one value/probability cell of a model histogram.
	ModelHistBin = model.HistBin
	// ModelOrigin is one component of the per-origin request mixture.
	ModelOrigin = model.OriginModel
	// ModelBand is one spatial band of the fitted placement distribution.
	ModelBand = model.BandModel
	// ModelArrival is the fitted burst-modulated arrival process.
	ModelArrival = model.ArrivalModel
	// ModelFitter is a Sink that fits a WorkloadModel incrementally.
	ModelFitter = model.Fitter
	// ModelDistanceReport quantifies divergence between two models.
	ModelDistanceReport = model.DistanceReport
	// ModelTolerance bounds an acceptable ModelDistanceReport.
	ModelTolerance = model.Tolerance
	// SynthOptions scales a synthetic trace generator.
	SynthOptions = synth.Options
	// SynthGenerator is a seeded deterministic synthetic trace Source.
	SynthGenerator = synth.Generator
)

// NewModelFitter returns a streaming Sink fitting a WorkloadModel; pass
// nodes 0 to infer the node count and bandSectors 0 for the paper's
// 100000-sector bands.
func NewModelFitter(label string, nodes int, diskSectors, bandSectors uint32) *ModelFitter {
	return model.NewFitter(label, nodes, diskSectors, bandSectors)
}

// FitModel drains a trace source into a fitted WorkloadModel.
func FitModel(label string, src TraceSource, nodes int, diskSectors, bandSectors uint32) (*WorkloadModel, error) {
	return model.Fit(label, src, nodes, diskSectors, bandSectors)
}

// FitModelSlice fits a WorkloadModel from an in-memory trace.
func FitModelSlice(label string, recs []Record, nodes int, diskSectors, bandSectors uint32) *WorkloadModel {
	return model.FitSlice(label, recs, nodes, diskSectors, bandSectors)
}

// ReadModelJSON decodes and validates a WorkloadModel JSON document.
func ReadModelJSON(r io.Reader) (*WorkloadModel, error) { return model.ReadJSON(r) }

// ModelDistance compares two workload models: KS distances on size and
// inter-arrival distributions, chi-square on spatial bands, relative
// errors on mix and rate.
func ModelDistance(a, b *WorkloadModel) ModelDistanceReport { return model.Distance(a, b) }

// DefaultModelTolerance bounds a routine fit-generate-refit round trip.
func DefaultModelTolerance() ModelTolerance { return model.DefaultTolerance() }

// NewSynth builds a seeded deterministic generator sampling the model; a
// zero Duration streams without bound.
func NewSynth(m *WorkloadModel, opts SynthOptions) (*SynthGenerator, error) {
	return synth.New(m, opts)
}

// GenerateSynth samples n records from the model as an in-memory trace.
func GenerateSynth(m *WorkloadModel, opts SynthOptions, n int) ([]Record, error) {
	return synth.Generate(m, opts, n)
}

// DurationOf converts seconds to virtual Duration.
func DurationOf(seconds float64) Duration { return sim.DurationOf(seconds) }

// Observability: the deterministic metric layer (counters, gauges,
// fixed-bucket histograms, pipeline stage tracing) behind Result.Obs, the
// /proc metrics files, and cmd/essmon. See internal/obs for the design.
type (
	// ObsLevel is the run-time metric collection level.
	ObsLevel = obs.Level
	// ObsRegistry is one collection domain's named metric set.
	ObsRegistry = obs.Registry
	// MetricSnapshot is a registry's sorted state at one moment; it
	// renders as Prometheus text or JSON and merges exactly.
	MetricSnapshot = obs.Snapshot
)

// Metric collection levels, in the spirit of the study's ioctl knob.
const (
	ObsOff      = obs.Off
	ObsCounters = obs.Counters
	ObsFull     = obs.Full
	ObsTrace    = obs.Trace
)

var (
	// NewObsRegistry returns an empty registry collecting at a level.
	NewObsRegistry = obs.New
	// ParseObsLevel maps "off"/"counters"/"full"/"trace" to an ObsLevel.
	ParseObsLevel = obs.ParseLevel
	// ParseMetricJSON reads a snapshot rendered by MetricSnapshot.JSON.
	ParseMetricJSON = obs.ParseJSON
)

// Per-request causal I/O tracing (obs level Trace): the deterministic
// event journal behind Result.IOTrace, the Chrome trace-event export,
// and the latency-breakdown / critical-path lenses. See
// internal/iotrace for the design.
type (
	// IOTraceEvent is one journaled span or instant of a request journey.
	IOTraceEvent = iotrace.Event
	// IOTraceStage identifies the I/O stack layer an event came from.
	IOTraceStage = iotrace.Stage
	// IOTraceBreakdown is the per-request latency breakdown lens,
	// aggregated into the paper's request size classes.
	IOTraceBreakdown = iotrace.Breakdown
	// IOTraceCriticalPath is the multi-node critical-path lens.
	IOTraceCriticalPath = iotrace.CriticalPath
)

var (
	// WriteChromeTrace renders a merged journal as Chrome trace-event
	// JSON, loadable in Perfetto. Byte-identical at any shard/worker
	// count for a given seed and config.
	WriteChromeTrace = iotrace.WriteChrome
	// MergeIOTrace folds per-node event slices into the (Time, Node,
	// Seq) total order.
	MergeIOTrace = iotrace.Merge
	// ComputeIOBreakdown aggregates a journal into per-size-class
	// latency breakdown rows.
	ComputeIOBreakdown = iotrace.ComputeBreakdown
	// ComputeIOCriticalPath extracts the span chain bounding a phase's
	// elapsed time.
	ComputeIOCriticalPath = iotrace.ComputeCriticalPath
)
