package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"essio"
	"essio/bench/stats"
	"essio/internal/characterize"
	"essio/internal/cluster"
	"essio/internal/model"
	"essio/internal/trace"
)

// metricSet maps metric names to their samples.
type metricSet map[string]stats.Summary

func (m metricSet) set(name, unit string, samples ...float64) {
	m[name] = stats.Summarize(unit, samples)
}

// measureLayers times the public entry points of each layer, one call at a
// time, around out (a profiled unit's output), folds the profiled units'
// CPU profiles by package, and reads the simulated counts from
// Result.Obs. All of it happens from outside the program: no span lives
// inside essio.
func measureLayers(in *input, out *unitOut, dir string, profiles []string) (metricSet, error) {
	m := metricSet{}
	shares, err := cpuShares(profiles, dir)
	if err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		m.set("cpu."+l, "%", shares[l])
	}

	cfg := in.cfg
	boot, err := seconds(func() error {
		c, err := cluster.New(cluster.Config{Nodes: cfg.Nodes, Seed: cfg.Seed, Shards: cfg.Shards})
		if err != nil {
			return err
		}
		c.Close()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	m.set("boot.s", "s", boot)

	res := out.res
	merge, _ := seconds(func() error {
		trace.Merge(res.PerNode...)
		return nil
	})
	m.set("capture.merge_s", "s", merge)
	char, err := seconds(func() error {
		_, _, err := characterize.Characterize(res.Source(), reportOptions(res))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("characterize capture: %w", err)
	}
	m.set("capture.char_s", "s", char)

	o := res.Obs
	events := float64(o.Counter("sim/events_fired"))
	hits, misses := float64(o.Counter("bcache/hits")), float64(o.Counter("bcache/misses"))
	m.set("sim.events", "count", events)
	m.set("sim.virt_s", "sim-s", res.Duration.Seconds())
	m.set("sim.ns_per_event", "ns", float64(out.simRun.Nanoseconds())/events)
	m.set("bcache.hits", "count", hits)
	m.set("bcache.misses", "count", misses)
	m.set("bcache.hit_ratio", "ratio", hits/(hits+misses))
	m.set("bcache.evictions", "count", float64(o.Counter("bcache/evictions")))
	m.set("bcache.writebacks", "count", float64(o.Counter("bcache/writebacks")))
	m.set("driver.requests", "count", float64(o.Counter("driver/requests")))
	m.set("disk.sectors", "count", float64(o.Counter("disk/sectors")))
	m.set("trace.records", "count", float64(len(res.Merged)))

	if err := tracePath(m, out.recs, out.opts, dir); err != nil {
		return nil, err
	}
	return m, nil
}

// tracePath times the trace pipeline on recs stage by stage: encoding to
// both file formats, decoding each into a counting sink, characterizing
// from each file and from memory, and fitting a model from memory and
// from the bin file.
func tracePath(m metricSet, recs []trace.Record, opts characterize.Options, dir string) error {
	bin, col := filepath.Join(dir, "layers.bin"), filepath.Join(dir, "layers.col")
	var failed error
	step := func(name string, f func() error) float64 {
		if failed != nil {
			return 0
		}
		t, err := seconds(f)
		if err != nil {
			failed = fmt.Errorf("%s: %w", name, err)
		}
		return t
	}
	encBin := step("encode bin", func() error { return writeTrace(bin, recs, trace.FormatBinary) })
	encCol := step("encode col", func() error { return writeTrace(col, recs, trace.FormatCol) })
	decBin := step("decode bin", func() error { return drain(bin) })
	decCol := step("decode col", func() error { return drain(col) })
	charBin := step("characterize bin", func() error { _, err := characterizeFile(bin, opts); return err })
	charCol := step("characterize col", func() error { _, err := characterizeFile(col, opts); return err })
	fold := step("fold", func() error {
		_, _, err := characterize.Characterize(trace.SliceSource(recs), opts)
		return err
	})
	fit := step("fit", func() error {
		_, err := model.Fit(opts.Label, trace.SliceSource(recs), opts.Nodes, opts.DiskSectors, 0)
		return err
	})
	fitBin := step("fit bin", func() error { _, err := fitFile(bin, opts); return err })
	if failed != nil {
		return failed
	}
	mrecs := float64(len(recs)) / 1e6
	m.set("trace.encode_bin_s", "s", encBin)
	m.set("trace.encode_col_s", "s", encCol)
	m.set("trace.decode_bin_s", "s", decBin)
	m.set("trace.decode_col_s", "s", decCol)
	m.set("char_bin_mrecs", "Mrec/s", mrecs/charBin)
	m.set("char_col_mrecs", "Mrec/s", mrecs/charCol)
	m.set("analysis.fold_s", "s", fold)
	m.set("model.fit_s", "s", fit)
	m.set("fit_mrecs", "Mrec/s", mrecs/fitBin)

	bs, err := os.Stat(bin)
	if err != nil {
		return err
	}
	cs, err := os.Stat(col)
	if err != nil {
		return err
	}
	m.set("trace.col_ratio", "ratio", float64(cs.Size())/float64(bs.Size()))
	return nil
}

// counter is a sink that only counts, so draining a file into it times
// the decoder alone. It takes every batch shape trace.Copy can deliver.
type counter int

func (c *counter) Add(trace.Record) error             { *c++; return nil }
func (c *counter) AddBatch(recs []trace.Record) error { *c += counter(len(recs)); return nil }
func (c *counter) AddCols(b *trace.ColBatch) error    { *c += counter(b.Len()); return nil }

func drain(path string) error {
	src, err := essio.OpenTraceFile(path, trace.FormatAuto)
	if err != nil {
		return err
	}
	defer src.Close()
	var n counter
	_, err = trace.Copy(&n, src)
	return err
}

func seconds(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// layerOf charges each essio/internal package (by its first path element)
// to the layer whose CPU share it counts in.
var layerOf = map[string]string{
	"apps": "apps", "sim": "sim",
	"cluster": "net", "ethernet": "net", "pvm": "net",
	"kernel": "kernel", "vm": "kernel", "procfs": "kernel",
	"vfs": "fs", "extfs": "fs",
	"buffercache": "bcache",
	"blockio":     "block", "driver": "block", "disk": "block",
	"trace":    "trace",
	"analysis": "analysis", "core": "analysis", "characterize": "analysis", "model": "analysis",
	"obs": "obs", "iotrace": "obs",
}

// cpuLayers names every CPU share the fold reports; they sum to 100.
var cpuLayers = []string{
	"apps", "sim", "net", "kernel", "fs", "bcache", "block", "trace", "analysis", "obs",
	"runtime", "stdlib", "other",
}

// cpuShares merges CPU profiles and folds their flat (self) time by layer,
// as percent of all samples, from the text of go tool pprof -top.
func cpuShares(profiles []string, dir string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0"}, profiles...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(text))
}

// foldTop sums the flat column of pprof -top text by layer and scales the
// sums to percent of the total.
func foldTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	inTable := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		flat[layerFor(packageOf(f[5]))] += d
		total += d
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top: no samples")
	}
	for l := range flat {
		flat[l] *= 100 / total
	}
	return flat, nil
}

// pprofUnits are the time suffixes pprof prints, longest match first.
var pprofUnits = []struct {
	suffix string
	scale  float64
}{
	{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1},
}

func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range pprofUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// packageOf extracts the import path from a pprof function name such as
// "essio/internal/sim.(*Engine).step" or "slices.SortFunc[go.shape...]".
// The only names without one are the runtime's assembly routines, such
// as aeshashbody and memeqbody.
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "runtime"
	}
	return fn[:slash+1+dot]
}

// layerFor charges a package to a layer. Go's runtime, including the
// standard library's internal/ tree that backs it, is "runtime"; other
// standard packages are "stdlib"; everything else not in layerOf (the
// experiment, synth, this benchmark, other modules) is "other".
func layerFor(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "essio/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		if l, ok := layerOf[first]; ok {
			return l
		}
		return "other"
	}
	first, _, _ := strings.Cut(pkg, "/")
	switch {
	case first == "runtime" || first == "internal":
		return "runtime"
	case first == "main" || first == "essio" || strings.Contains(first, "."):
		return "other"
	}
	return "stdlib"
}
