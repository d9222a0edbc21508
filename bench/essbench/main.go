// Command essbench is the repository benchmark. It runs the workloads of
// bench/README.md, checks every unit's output against bench/golden.json,
// prints each metric with its unit, and ends with one JSON summary line.
// Run it from the repository root:
//
//	bash bench/run.sh -workload all -seed 1 -o result.json
//	bash bench/run.sh -workload e2-wavelet -seed 3 -seconds 16 -trace 1
//
// Each workload runs in one fresh process, a re-exec of this binary, so
// that the process's peak RSS is the workload's own. The process sets up
// timedSetups times (the workload's input synthesis, then one warm-up
// unit), then runs units back to back, a closed loop, for -seconds. With
// -trace 1 the process sets up once, profiles every other unit, and then
// times the layers one call at a time; its output is the per-layer
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"essio/bench/stats"
)

const (
	// timedSetups is how many times a timed process sets up, so that
	// setup_s is a median of that many samples.
	timedSetups = 3
	// childTimeout kills a workload process that hangs.
	childTimeout = 170 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the workload inputs")
	secs := flag.Float64("seconds", 16, "seconds of timed units per workload")
	traceMode := flag.Int("trace", 0, "1 profiles the units and reports per-layer metrics")
	out := flag.String("o", "", "write the full result (host, samples, quartiles) to this file")
	goldenPath := flag.String("golden", "bench/golden.json", "golden digests file")
	writeGolden := flag.Bool("write-golden", false, "regenerate the golden digests of seeds 1 and 2, then exit")
	child := flag.Bool("child", false, "internal: run as the workload process")
	dir := flag.String("dir", "", "internal: scratch directory of the workload process")
	flag.Parse()

	if *traceMode != 0 && *traceMode != 1 {
		fatalf(2, "-trace must be 0 or 1")
	}
	if *child {
		w := findWorkload(*name)
		if w == nil {
			fatalf(2, "unknown workload %q", *name)
		}
		rep := workloadProcess(w, *seed, *dir, time.Duration(*secs*float64(time.Second)), *traceMode == 1)
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatalf(1, "%v", err)
		}
		return
	}
	if *writeGolden {
		if err := writeGoldenFile(*goldenPath); err != nil {
			fatalf(1, "%v", err)
		}
		return
	}

	ws := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fatalf(2, "unknown workload %q (want all or one of %s)", *name, workloadNames())
		}
		ws = []*workload{w}
	}
	golden, err := readGolden(*goldenPath)
	if err != nil {
		fatalf(1, "%v", err)
	}

	res := resultFile{Host: hostInfo(), Seed: *seed, Seconds: *secs, Trace: *traceMode == 1}
	for _, w := range ws {
		var want *digests
		if d, ok := golden[w.name][strconv.FormatInt(*seed, 10)]; ok {
			want = &d
		}
		r, err := runWorkload(w, *seed, *secs, res.Trace, want)
		if err != nil {
			fatalf(1, "%s: %v", w.name, err)
		}
		res.Workloads = append(res.Workloads, r)
	}
	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatalf(1, "%v", err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatalf(1, "%v", err)
		}
	}
	line := res.print()
	if !line.Correct {
		os.Exit(1)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "essbench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// resultFile is what -o writes: the host, the settings, and every
// workload's samples with their quartiles.
type resultFile struct {
	Host      host              `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Workloads []*workloadResult `json:"workloads"`
}

// host records which machine and which code produced a result.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func hostInfo() host {
	h := host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if h.Commit != "unknown" {
			h.Commit += dirty
		}
	}
	return h
}

// workloadResult is one workload's outcome in one invocation.
type workloadResult struct {
	Name          string   `json:"name"`
	Seed          int64    `json:"seed"`
	Setups        int      `json:"setups"`
	WarmupUnits   int      `json:"warmup_units"`
	TimedUnits    int      `json:"timed_units"`
	ProfiledUnits int      `json:"profiled_units,omitempty"`
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	Correct       bool     `json:"correct"`
	Errors        []string `json:"errors,omitempty"`
	Digests       digests  `json:"digests"`
	// Probe is the host-speed probe around the workload process, and
	// Scale the factor it gives; the end-to-end run_s and setup_s are the
	// Wall ones times Scale.
	Probe    stats.Summary `json:"probe_s"`
	Scale    float64       `json:"scale"`
	Wall     metricSet     `json:"wall,omitempty"`
	EndToEnd metricSet     `json:"end_to_end,omitempty"`
	PerLayer metricSet     `json:"per_layer,omitempty"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric's median, quartiles and sample count, then the
// summary line: end-to-end metrics, or per-layer ones in a traced run.
// With several workloads the summary names each metric workload.metric.
func (r *resultFile) print() summaryLine {
	line := summaryLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, w := range r.Workloads {
		fmt.Printf("%s seed %d: %d set-ups, %d warm-up + %d timed units (%d profiled), %d/%d failed\n",
			w.Name, w.Seed, w.Setups, w.WarmupUnits, w.TimedUnits, w.ProfiledUnits, w.Failed, w.Attempted)
		for _, e := range w.Errors {
			fmt.Printf("  error: %s\n", e)
		}
		if !r.Trace && w.Correct {
			fmt.Printf("  host probe %.6g s, so run_s and setup_s are wall times (%.6g s, %.6g s) scaled by %.6g\n",
				w.Probe.Median, w.Wall["run_s"].Median, w.Wall["setup_s"].Median, w.Scale)
		}
		shown := w.EndToEnd
		if r.Trace {
			shown = w.PerLayer
		}
		names := make([]string, 0, len(shown))
		for n := range shown {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := shown[n]
			fmt.Printf("  %-22s %14.6g %-7s q1 %.6g q3 %.6g n=%d\n", n, s.Median, s.Unit, s.Q1, s.Q3, len(s.Samples))
		}
		line.Correct = line.Correct && w.Correct
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for n, s := range shown {
			if len(r.Workloads) > 1 {
				n = w.Name + "." + n
			}
			line.Metrics[n] = valueUnit{s.Median, s.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil { // a NaN or infinite metric
		fatalf(1, "summary: %v", err)
	}
	fmt.Println(string(b))
	return line
}

// proc is the workload process as the parent saw it.
type proc struct {
	rep   childReport
	rss   float64   // peak resident set, MiB
	probe []float64 // host-speed probe times before and after the process
	err   error
}

// runWorkload runs the workload process in a fresh scratch directory,
// with the host-speed probe timed before and after it.
func runWorkload(w *workload, seed int64, secs float64, traced bool, want *digests) (*workloadResult, error) {
	dir, err := os.MkdirTemp("", "essbench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	before := probeTimes(probeRounds)
	p := spawn(w, seed, dir, secs, traced)
	p.probe = append(before, probeTimes(probeRounds)...)
	return aggregate(w.name, seed, want, p, traced), nil
}

// spawn runs the workload process to completion.
func spawn(w *workload, seed int64, dir string, secs float64, traced bool) (p proc) {
	exe, err := os.Executable()
	if err != nil {
		return proc{err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", trace, "-dir", dir)
	cmd.Stderr = os.Stderr
	killWithParent(cmd)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out, err := cmd.Output()
	if err != nil {
		return proc{err: fmt.Errorf("workload process: %w", err)}
	}
	if err := json.Unmarshal(out, &p.rep); err != nil {
		return proc{err: fmt.Errorf("workload process report: %w", err)}
	}
	if p.rss, err = peakRSS(cmd.ProcessState); err != nil {
		return proc{err: err}
	}
	return p
}

// aggregate checks every unit's digests — against the golden ones when
// want is set, else against the first unit's — and summarizes the
// samples: the end-to-end metrics of a timed process, or the per-layer
// metrics of a traced one. A failed process counts as one failed unit.
func aggregate(name string, seed int64, want *digests, p proc, traced bool) *workloadResult {
	r := &workloadResult{Name: name, Seed: seed, Setups: len(p.rep.Setups)}
	ref, refName := want, "golden"
	var runS, profiledS, alloc, gcCPU, gcCycles []float64
	fail := func(msg string) {
		r.Failed++
		r.Errors = append(r.Errors, msg)
	}
	if p.err != nil {
		p.rep.Err = p.err.Error()
	}
	if p.rep.Err != "" {
		r.Attempted++
		fail(p.rep.Err)
	}
	for _, u := range p.rep.Units {
		r.Attempted++
		if u.Err == "" && ref == nil {
			ref, refName = &u.Digests, "the first unit"
		}
		if u.Err == "" && u.Digests != *ref {
			u.Err = fmt.Sprintf("digests %+v differ from %s: %+v", u.Digests, refName, *ref)
		}
		switch {
		case u.Err != "":
			fail(u.Err)
		case u.Warmup:
			r.WarmupUnits++
		case u.Profiled:
			r.ProfiledUnits++
			profiledS = append(profiledS, u.RunS)
		default:
			r.TimedUnits++
			runS = append(runS, u.RunS)
			alloc = append(alloc, u.AllocMiB)
			gcCPU = append(gcCPU, u.GCCPUS)
			gcCycles = append(gcCycles, u.GCCycles)
		}
	}
	if ref != nil {
		r.Digests = *ref
	}
	r.Correct = r.Failed == 0 && r.TimedUnits > 0
	if !r.Correct {
		return r
	}

	r.Probe = stats.Summarize("s", p.probe)
	r.Scale = speedScale(p.probe)
	if !traced {
		r.Wall = metricSet{}
		r.Wall.set("run_s", "s", runS...)
		r.Wall.set("setup_s", "s", p.rep.Setups...)
		r.EndToEnd = metricSet{}
		r.EndToEnd.set("run_s", "s", scaled(runS, r.Scale)...)
		r.EndToEnd.set("setup_s", "s", scaled(p.rep.Setups, r.Scale)...)
		r.EndToEnd.set("alloc_mb", "MiB", alloc...)
		r.EndToEnd.set("peak_rss_mb", "MiB", p.rss)
		return r
	}
	r.PerLayer = p.rep.Layers
	r.PerLayer.set("gc.cpu_s", "s", gcCPU...)
	r.PerLayer.set("gc.cycles", "count", gcCycles...)
	r.PerLayer.set("traced.run_s", "s", profiledS...)
	overhead := 100 * (r.PerLayer["traced.run_s"].Median/stats.Median(runS) - 1)
	r.PerLayer.set("traced.overhead_pct", "%", overhead)
	return r
}

// childReport is what the workload process prints as its only output.
type childReport struct {
	Setups []float64    `json:"setups"` // seconds of each set-up, warm-up unit included
	Units  []unitSample `json:"units"`  // the warm-up units first
	Layers metricSet    `json:"layers,omitempty"`
	Err    string       `json:"err,omitempty"` // a set-up, the profiler or the layer timing failed
}

// unitSample is one unit's host cost and checked output.
type unitSample struct {
	Warmup   bool    `json:"warmup,omitempty"`
	Profiled bool    `json:"profiled,omitempty"`
	RunS     float64 `json:"run_s"`
	AllocMiB float64 `json:"alloc_mib"`
	GCCPUS   float64 `json:"gc_cpu_s"`
	GCCycles float64 `json:"gc_cycles"`
	Digests  digests `json:"digests"`
	Err      string  `json:"err,omitempty"`
}

// workloadProcess is the body of the workload process. It sets up
// timedSetups times (once when traced), each time the workload's own
// set-up followed by a warm-up unit, then runs units back to back until
// slice has passed. A traced process profiles every other unit, at least
// one of each kind, and then times the layers around the last profiled
// unit's output.
func workloadProcess(w *workload, seed int64, dir string, slice time.Duration, traced bool) (rep childReport) {
	setups, minUnits := timedSetups, 1
	if traced {
		setups, minUnits = 1, 2
	}
	var in *input
	for i := 0; i < setups; i++ {
		in = nil // the previous set-up's input is garbage before the next is made
		start := time.Now()
		var err error
		if in, err = w.setup(seed, dir); err != nil {
			rep.Err = "set-up: " + err.Error()
			return rep
		}
		warm, _ := measure(w, in)
		warm.Warmup = true
		rep.Setups = append(rep.Setups, time.Since(start).Seconds())
		rep.Units = append(rep.Units, warm)
	}
	if !traced {
		in.recs = nil // timed units read analyze-e4's trace from its files
	}

	var profiles []string
	var last *unitOut
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start) < slice; i++ {
		if !traced || i%2 == 0 {
			u, _ := measure(w, in)
			rep.Units = append(rep.Units, u)
			continue
		}
		profile := filepath.Join(dir, fmt.Sprintf("unit-%d.pprof", i))
		var u unitSample
		var out *unitOut
		if err := profiled(profile, func() { u, out = measure(w, in) }); err != nil {
			rep.Err = "profile: " + err.Error()
			return rep
		}
		u.Profiled = true
		rep.Units = append(rep.Units, u)
		profiles = append(profiles, profile)
		if out != nil {
			last = out
		}
	}
	if !traced || last == nil {
		return rep
	}
	layers, err := measureLayers(in, last, dir, profiles)
	if err != nil {
		rep.Err = "layers: " + err.Error()
		return rep
	}
	rep.Layers = layers
	return rep
}

// profiled runs f under the CPU profiler, writing the profile to path.
func profiled(path string, f func()) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return err
	}
	f()
	pprof.StopCPUProfile()
	return file.Close()
}

// measure runs one unit, timing it and reading the runtime's allocation
// and GC counters around it. The output is nil when the unit failed.
func measure(w *workload, in *input) (unitSample, *unitOut) {
	before := readRuntime()
	start := time.Now()
	out, err := w.unit(in)
	u := unitSample{RunS: time.Since(start).Seconds()}
	after := readRuntime()
	u.AllocMiB = (after[0] - before[0]) / (1 << 20)
	u.GCCPUS = after[1] - before[1]
	u.GCCycles = after[2] - before[2]
	if err != nil {
		u.Err = err.Error()
		return u, nil
	}
	u.Digests = out.digests
	return u, out
}

// readRuntime returns bytes allocated to the heap (the counter behind
// MemStats.TotalAlloc), GC CPU seconds, and completed GC cycles.
func readRuntime() [3]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return [3]float64{float64(s[0].Value.Uint64()), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// golden maps workload name, then seed, to the expected digests.
type golden map[string]map[string]digests

func readGolden(path string) (golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// writeGoldenFile runs one unit of every workload at seeds 1 and 2, every
// simulation on one shard, and writes their digests to path. A sharded
// workload checked against these digests proves shard byte-identity.
func writeGoldenFile(path string) error {
	dir, err := os.MkdirTemp("", "essbench-golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g := golden{}
	for _, w := range workloads {
		g[w.name] = map[string]digests{}
		for _, seed := range []int64{1, 2} {
			in, err := w.setup(seed, dir)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			in.cfg.Shards = 1
			out, err := w.unit(in)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			g[w.name][strconv.FormatInt(seed, 10)] = out.digests
			fmt.Fprintf(os.Stderr, "%s seed %d: %+v\n", w.name, seed, out.digests)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
