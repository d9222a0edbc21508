package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"essio"
	"essio/internal/characterize"
	"essio/internal/essd"
	"essio/internal/experiment"
	"essio/internal/model"
	"essio/internal/synth"
	"essio/internal/trace"
)

// e4Records is the length of analyze-e4's synthesized trace: large enough
// that decode, accumulation and fitting dominate a unit, small enough
// that a unit takes two to three seconds on a 2-CPU host.
const e4Records = 4 << 20

// workload is one benchmark input: what its set-up prepares from a seed,
// and what one unit of work is. bench/README.md says why each was chosen.
type workload struct {
	name  string
	setup func(seed int64, dir string) (*input, error)
	unit  func(in *input) (*unitOut, error)
}

// workloads is the benchmark's workload table, in run order.
var workloads = []*workload{
	simWorkload("e2-wavelet", experiment.Config{Kind: experiment.Wavelet, Nodes: 8}),
	simWorkload("e1-ppm-2n", experiment.Config{Kind: experiment.PPM, Nodes: 2}),
	simWorkload("e1-small-16n", withShards(experiment.SmallConfig(experiment.PPM, 16), 2)),
	{name: "analyze-e4", setup: setupE4, unit: unitE4},
}

func withShards(cfg experiment.Config, shards int) experiment.Config {
	cfg.Shards = shards
	return cfg
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// input is what a set-up hands to the units of one process.
type input struct {
	// cfg is the experiment a simulator unit runs; for analyze-e4 it is
	// the small combined run its model is fitted to.
	cfg experiment.Config

	// analyze-e4 only: the simulated run behind the model and its host
	// time, the synthesized trace (nil once only files are needed), and
	// its two encodings on disk.
	base             *experiment.Result
	baseRun          time.Duration
	recs             []trace.Record
	binPath, colPath string
	traceDigest      string
}

// unitOut is one unit's checked output, plus what a traced run measures
// its layers on: a simulator result, the host time of experiment.Run, and
// the trace the unit produced or read with its report options.
type unitOut struct {
	digests digests
	res     *experiment.Result
	simRun  time.Duration
	recs    []trace.Record
	opts    characterize.Options
}

// digests fingerprint a unit's outputs; bench/golden.json stores them for
// seeds 1 and 2.
type digests struct {
	Trace  string `json:"trace"`
	Report string `json:"report"`
	Model  string `json:"model,omitempty"`
}

// simWorkload runs one experiment per unit and characterizes its merged
// trace with every report section on.
func simWorkload(name string, cfg experiment.Config) *workload {
	return &workload{
		name: name,
		setup: func(seed int64, _ string) (*input, error) {
			c := cfg
			c.Seed = seed
			return &input{cfg: c}, nil
		},
		unit: simUnit,
	}
}

func simUnit(in *input) (*unitOut, error) {
	start := time.Now()
	res, err := experiment.Run(in.cfg)
	simRun := time.Since(start)
	if err != nil {
		return nil, err
	}
	if !res.Finished {
		return nil, fmt.Errorf("experiment %s: processes still running at the timeout", in.cfg.Kind)
	}
	opts := reportOptions(res)
	report, _, err := characterize.Characterize(res.Source(), opts)
	if err != nil {
		return nil, fmt.Errorf("characterize: %w", err)
	}
	return &unitOut{
		digests: digests{Trace: essd.HashRecords(res.Merged), Report: sha(report)},
		res:     res,
		simRun:  simRun,
		recs:    res.Merged,
		opts:    opts,
	}, nil
}

// reportOptions turns every characterization section on for res's trace.
func reportOptions(res *experiment.Result) characterize.Options {
	return characterize.Options{
		Label: string(res.Kind), Nodes: res.Nodes, DiskSectors: res.DiskSectors,
		Hist: true, Spatial: true, Temporal: true, Queue: true, Origins: true,
	}
}

// e4Options is reportOptions for the synthesized 16-node trace.
func e4Options(in *input) characterize.Options {
	o := reportOptions(in.base)
	o.Label, o.Nodes = "analyze-e4", 16
	return o
}

// setupE4 simulates SmallConfig(Combined, 2), fits a model to it,
// synthesizes e4Records records at 16 nodes, and writes them to dir as a
// bin and a col file.
func setupE4(seed int64, dir string) (*input, error) {
	cfg := experiment.SmallConfig(experiment.Combined, 2)
	cfg.Seed = seed
	start := time.Now()
	base, err := experiment.Run(cfg)
	baseRun := time.Since(start)
	if err != nil {
		return nil, err
	}
	m, err := model.Fit("e4-base", base.Source(), base.Nodes, base.DiskSectors, 0)
	if err != nil {
		return nil, fmt.Errorf("fit base model: %w", err)
	}
	recs, err := synth.Generate(m, synth.Options{Seed: uint64(seed), Nodes: 16}, e4Records)
	if err != nil {
		return nil, fmt.Errorf("synthesize: %w", err)
	}
	in := &input{
		cfg: cfg, base: base, baseRun: baseRun, recs: recs,
		binPath:     filepath.Join(dir, "e4.bin"),
		colPath:     filepath.Join(dir, "e4.col"),
		traceDigest: essd.HashRecords(recs),
	}
	if err := writeTrace(in.binPath, recs, trace.FormatBinary); err != nil {
		return nil, err
	}
	if err := writeTrace(in.colPath, recs, trace.FormatCol); err != nil {
		return nil, err
	}
	return in, nil
}

// unitE4 characterizes the bin and the col file, which must agree, and
// fits a model from the bin file.
func unitE4(in *input) (*unitOut, error) {
	opts := e4Options(in)
	fromBin, err := characterizeFile(in.binPath, opts)
	if err != nil {
		return nil, err
	}
	fromCol, err := characterizeFile(in.colPath, opts)
	if err != nil {
		return nil, err
	}
	if fromBin != fromCol {
		return nil, fmt.Errorf("bin and col characterizations differ")
	}
	m, err := fitFile(in.binPath, opts)
	if err != nil {
		return nil, err
	}
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		return nil, err
	}
	return &unitOut{
		digests: digests{Trace: in.traceDigest, Report: sha(fromBin), Model: sha(js.String())},
		res:     in.base,
		simRun:  in.baseRun,
		recs:    in.recs,
		opts:    opts,
	}, nil
}

func characterizeFile(path string, opts characterize.Options) (string, error) {
	src, err := essio.OpenTraceFile(path, trace.FormatAuto)
	if err != nil {
		return "", err
	}
	defer src.Close()
	report, _, err := characterize.Characterize(src, opts)
	if err != nil {
		return "", fmt.Errorf("characterize %s: %w", path, err)
	}
	return report, nil
}

func fitFile(path string, opts characterize.Options) (*model.WorkloadModel, error) {
	src, err := essio.OpenTraceFile(path, trace.FormatAuto)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	m, err := model.Fit(opts.Label, src, opts.Nodes, opts.DiskSectors, 0)
	if err != nil {
		return nil, fmt.Errorf("fit %s: %w", path, err)
	}
	return m, nil
}

// flusher is the trace writers' end-of-stream call.
type flusher interface {
	trace.Sink
	Flush() error
}

// writeTrace encodes recs to path in format (bin or col).
func writeTrace(path string, recs []trace.Record, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w flusher = trace.NewWriter(f)
	if format == trace.FormatCol {
		w = trace.NewColWriter(f)
	}
	if _, err := trace.Copy(w, trace.SliceSource(recs)); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func sha(s string) string { return fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(s))) }
