// Package experiment reproduces the study's four experiments: the
// quiescent baseline, each ESS application run alone on the cluster, and
// the combined multiprogramming run with all three applications at once.
// Each run boots a fresh 16-node Beowulf, installs the program images and
// input data, turns the driver instrumentation on via ioctl, excites the
// workload, and collects the per-disk traces.
package experiment

import (
	"fmt"

	"essio/internal/apps"
	"essio/internal/apps/nbody"
	"essio/internal/apps/ppm"
	"essio/internal/apps/wavelet"
	"essio/internal/cluster"
	"essio/internal/iotrace"
	"essio/internal/kernel"
	"essio/internal/obs"
	"essio/internal/sim"
	"essio/internal/trace"
	"essio/internal/vfs"
)

// Kind selects one of the paper's experiments.
type Kind string

// The five experiments.
const (
	Baseline Kind = "baseline"
	PPM      Kind = "ppm"
	Wavelet  Kind = "wavelet"
	NBody    Kind = "nbody"
	Combined Kind = "combined"
)

// Kinds lists all experiments in paper order.
var Kinds = []Kind{Baseline, PPM, Wavelet, NBody, Combined}

// Config parameterizes a run. Zero fields take paper defaults.
type Config struct {
	Kind  Kind
	Nodes int   // default 16
	Seed  int64 // default 1
	// Shards spreads the simulated nodes over that many parallel engines
	// (conservative lookahead sync); 0/1 is the sequential schedule.
	// Results are byte-identical at every setting.
	Shards int

	// BaselineDuration is how long the no-load experiment observes the
	// system (the paper used 2000 s).
	BaselineDuration sim.Duration
	// Timeout bounds application experiments in virtual time.
	Timeout sim.Duration
	// Tail keeps tracing after the last process exits so final
	// write-backs are captured.
	Tail sim.Duration

	// Application parameter overrides (zero values take defaults).
	PPM     ppm.Params
	Wavelet wavelet.Params
	NBody   nbody.Params

	// Node overrides per-node kernel configuration (ablations).
	Node func(i int) kernel.Config

	// ColdStart drops all clean cached blocks before tracing begins, so
	// even small binaries demand-load from disk (ablation; the default
	// warm start matches the paper's repeated-run measurement setting).
	ColdStart bool

	// ObsLevel sets every node's metric collection level (obs.Unset keeps
	// the kernel default, Counters; obs.Full adds histograms and spans).
	// Per-node overrides from Node win when this is Unset.
	ObsLevel obs.Level
}

// Result is a completed experiment.
type Result struct {
	Kind        Kind
	Nodes       int
	Start, End  sim.Time
	Duration    sim.Duration
	PerNode     [][]trace.Record
	Merged      []trace.Record
	DiskSectors uint32
	// Finished reports whether all application processes exited before
	// the timeout.
	Finished bool
	// AppErrors carries any per-process failures.
	AppErrors []error
	// AppEvents is the application-level (explicit) I/O the user programs
	// issued — the library-instrumentation view. Comparing it against
	// Merged quantifies the system traffic device-driver tracing adds.
	AppEvents []vfs.IOEvent
	// Obs is the cluster-wide metric snapshot taken the moment tracing
	// stopped: every node's registry merged, plus the engine's scheduler
	// metrics. Deterministic for a given seed and config.
	Obs *obs.Snapshot
	// ProcMetrics is node 0's /proc metrics file as a simulated process
	// read it — the faithful out-of-kernel exposition path. Read after
	// Obs was captured (the read itself advances virtual time), so its
	// values may trail Obs by a tick of daemon activity.
	ProcMetrics string
	// IOTrace is the per-request event journal merged across nodes in
	// (Time, Node, Seq) order — empty unless the run collected at obs
	// level Trace. IOTraceDropped counts ring-capacity evictions; when
	// non-zero the journal is a suffix of the run.
	IOTrace        []iotrace.Event
	IOTraceDropped uint64
}

// Source returns a streaming view of the merged trace: a k-way merge over
// the per-node traces, yielding records in the same (Time, Node, Sector)
// order as Merged without materializing another combined copy. It is
// also a trace.ColSource, so columnar consumers drain it a batch at a
// time. Each call returns an independent iterator.
func (r *Result) Source() trace.Source {
	return trace.MergeSlices(r.PerNode...)
}

func (c *Config) fill() {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BaselineDuration == 0 {
		c.BaselineDuration = 2000 * sim.Second
	}
	if c.Timeout == 0 {
		c.Timeout = 4 * 60 * sim.Minute
	}
	if c.Tail == 0 {
		c.Tail = 30 * sim.Second
	}
	if c.PPM.NX == 0 {
		c.PPM = ppm.DefaultParams()
	}
	if c.Wavelet.N == 0 {
		c.Wavelet = wavelet.DefaultParams()
	}
	if c.NBody.Particles == 0 {
		c.NBody = nbody.DefaultParams()
	}
}

// Run executes the experiment and returns its traces.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	nodeCfg := cfg.Node
	if cfg.ObsLevel != obs.Unset {
		nodeCfg = func(i int) kernel.Config {
			kcfg := kernel.DefaultConfig(uint8(i))
			if cfg.Node != nil {
				kcfg = cfg.Node(i)
			}
			kcfg.ObsLevel = cfg.ObsLevel
			return kcfg
		}
	}
	c, err := cluster.New(cluster.Config{Nodes: cfg.Nodes, Seed: cfg.Seed, Shards: cfg.Shards, Node: nodeCfg})
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", cfg.Kind, err)
	}
	defer c.Close()

	res := &Result{Kind: cfg.Kind, Nodes: cfg.Nodes, DiskSectors: c.Nodes[0].Disk.Sectors()}

	// Build the program set for this experiment.
	var progs []*kernel.Program
	switch cfg.Kind {
	case Baseline:
	case PPM:
		pr := cfg.PPM
		pr.Team = apps.NewTeam(c.PVM, cfg.Nodes)
		progs = append(progs, ppm.Program(pr))
	case Wavelet:
		pr := cfg.Wavelet
		pr.Team = apps.NewTeam(c.PVM, cfg.Nodes)
		progs = append(progs, wavelet.Program(pr))
	case NBody:
		pr := cfg.NBody
		pr.Team = apps.NewTeam(c.PVM, cfg.Nodes)
		progs = append(progs, nbody.Program(pr))
	case Combined:
		pp := cfg.PPM
		pp.Team = apps.NewTeam(c.PVM, cfg.Nodes)
		wp := cfg.Wavelet
		wp.Team = apps.NewTeam(c.PVM, cfg.Nodes)
		np := cfg.NBody
		np.Team = apps.NewTeam(c.PVM, cfg.Nodes)
		progs = append(progs, ppm.Program(pp), wavelet.Program(wp), nbody.Program(np))
	default:
		return nil, fmt.Errorf("experiment: unknown kind %q", cfg.Kind)
	}

	// Install inputs first, then program images: the wavelet input image
	// is then naturally evicted from the 2 MB buffer caches by the 5 MB
	// wavelet binary, so its streaming read hits the disk cold, while the
	// small PPM and N-body binaries stay cache-warm — reproducing the
	// paper's asymmetry (heavy paging for wavelet, almost none for the
	// simulation codes).
	needsImage := cfg.Kind == Wavelet || cfg.Kind == Combined
	if needsImage {
		done := make([]bool, len(c.Nodes))
		errs := make([]error, len(c.Nodes))
		for i, n := range c.Nodes {
			i, n := i, n
			wcfg := cfg.Wavelet
			c.SpawnOn(i, "install-image", func(p *sim.Proc) {
				errs[i] = wavelet.InstallInputs(p, n, wcfg)
				done[i] = true
			})
		}
		for {
			all := true
			for _, d := range done {
				if !d {
					all = false
					break
				}
			}
			if all {
				break
			}
			c.RunFor(sim.Second)
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	for _, prog := range progs {
		if err := c.Install(prog); err != nil {
			return nil, err
		}
	}

	if cfg.ColdStart {
		c.DropCaches()
	}
	c.StartTracing()
	res.Start = c.Now()

	if cfg.Kind == Baseline {
		c.Run(res.Start.Add(cfg.BaselineDuration))
		res.Finished = true
	} else {
		var procs []*kernel.Process
		for _, prog := range progs {
			procs = append(procs, c.Launch(prog)...)
		}
		_, ok := c.WaitAll(procs, cfg.Timeout)
		res.Finished = ok
		for _, pr := range procs {
			if err := pr.Err(); err != nil {
				res.AppErrors = append(res.AppErrors, err)
			}
		}
		c.RunFor(cfg.Tail)
	}

	c.StopTracing()
	res.End = c.Now()
	res.Duration = res.End.Sub(res.Start)
	res.PerNode = c.Traces()
	res.Merged = trace.Merge(res.PerNode...)
	res.AppEvents = c.AppEvents()
	res.Obs = c.ObsSnapshot()
	res.IOTrace = c.IOTrace()
	res.IOTraceDropped = c.IOTraceDropped()
	res.ProcMetrics = readProcMetrics(c)
	if len(res.AppErrors) > 0 {
		return res, fmt.Errorf("experiment %s: %d process failures, first: %w",
			cfg.Kind, len(res.AppErrors), res.AppErrors[0])
	}
	return res, nil
}

// readProcMetrics reads node 0's /proc metrics file from process context,
// exactly as a measurement workstation would: open the proc entry, read
// the text out. The read runs as a spawned process, advancing virtual time
// by up to a second past the experiment's end.
func readProcMetrics(c *cluster.Cluster) string {
	var text string
	c.SpawnOn(0, "readmetrics", func(p *sim.Proc) {
		f, err := c.Nodes[0].Proc.Open("metrics")
		if err != nil {
			return
		}
		buf := make([]byte, 1<<20)
		n, err := f.Read(p, buf)
		if err != nil {
			return
		}
		text = string(buf[:n])
	})
	c.RunFor(sim.Second)
	return text
}

// SmallConfig returns a scaled-down configuration (fewer nodes, smaller
// problems) that preserves each experiment's qualitative behaviour; unit
// and integration tests use it to keep runtimes low.
func SmallConfig(kind Kind, nodes int) Config {
	cfg := Config{Kind: kind, Nodes: nodes, Seed: 1}
	cfg.fill()
	cfg.BaselineDuration = 300 * sim.Second
	cfg.Timeout = 90 * sim.Minute
	cfg.PPM.NX, cfg.PPM.NY, cfg.PPM.Grids, cfg.PPM.Steps = 64, 128, 2, 2
	cfg.Wavelet.N, cfg.Wavelet.Levels = 128, 4
	cfg.Wavelet.Workspaces, cfg.Wavelet.Iterations = 2, 4
	cfg.NBody.Particles, cfg.NBody.Steps = 1024, 2
	return cfg
}
