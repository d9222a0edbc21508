// Command benchdiff compares two sets of essbench result files (written
// with -o) workload by workload and end-to-end metric by metric, against
// the bounds in BENCHMARK.json:
//
//	benchdiff -a 'base/*.json' -b 'new/*.json' [-bench BENCHMARK.json]
//
// Each file contributes its median of each metric as one sample; the
// files of a set are paired with the other set's in name order. For each
// pairing it prints both sets' medians and quartiles, how many pairs B
// wins, and a verdict:
//
//   - worse: B's median is worse than A's by more than the bound, and the
//     spread is within the bound or every B run is worse than every A run;
//   - unresolved: the spread (the wider interquartile range of the two
//     sets, as a share of its median) exceeds the bound, and not every B
//     run is better than every A run;
//   - better: B wins at least nine tenths of the pairs and the medians
//     differ by more than A's interquartile range;
//   - same: anything else.
//
// It exits with status 1 when any pairing is worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"essio/bench/stats"
)

// metricDef is one end_to_end entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// resultFile is the part of an essbench -o file benchdiff reads.
type resultFile struct {
	Workloads []struct {
		Name     string                   `json:"name"`
		EndToEnd map[string]stats.Summary `json:"end_to_end"`
	} `json:"workloads"`
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	a := flag.String("a", "", "glob of the baseline result files")
	b := flag.String("b", "", "glob of the candidate result files")
	flag.Parse()
	if *a == "" || *b == "" {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -a 'base/*.json' -b 'new/*.json' [-bench BENCHMARK.json]")
		os.Exit(2)
	}
	worse, err := run(*benchPath, *a, *b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

func run(benchPath, globA, globB string) (worse bool, err error) {
	var def struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	setA, err := load(globA)
	if err != nil {
		return false, err
	}
	setB, err := load(globB)
	if err != nil {
		return false, err
	}
	var names []string
	for w := range setA {
		if _, ok := setB[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload appears in both sets")
	}
	fmt.Printf("%-14s %-12s %-34s %-34s %8s %7s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "B wins", "verdict")
	for _, w := range names {
		for _, m := range def.EndToEnd {
			xa, xb := setA[w][m.Name], setB[w][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := compare(xa, xb, m.Bound, m.Better != "higher")
			fmt.Printf("%-14s %-12s %-34s %-34s %+7.2f%% %3d/%-3d  %s\n", w, m.Name,
				describe(c.a, m.Unit), describe(c.b, m.Unit), 100*c.change, c.wins, c.pairs, c.verdict)
			worse = worse || c.verdict == "worse"
		}
	}
	return worse, nil
}

// load reads every file matching glob, in name order, into workload →
// metric → one median per file.
func load(glob string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	sort.Strings(files)
	out := map[string]map[string][]float64{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, w := range r.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for m, s := range w.EndToEnd {
				out[w.Name][m] = append(out[w.Name][m], s.Median)
			}
		}
	}
	return out, nil
}

func describe(s stats.Summary, unit string) string {
	return fmt.Sprintf("%.5g %s [%.5g %.5g]", s.Median, unit, s.Q1, s.Q3)
}

// comparison is one workload × metric pairing of the two sets.
type comparison struct {
	a, b        stats.Summary
	change      float64 // (B - A) / A of the medians
	wins, pairs int
	verdict     string
}

// compare judges candidate samples b against baseline samples a. lower
// says smaller values are better; bound is the share of A's median by
// which B may be worse.
func compare(a, b []float64, bound float64, lower bool) comparison {
	c := comparison{a: stats.Summarize("", a), b: stats.Summarize("", b)}
	c.change = (c.b.Median - c.a.Median) / c.a.Median
	better := func(x, y float64) bool { return (lower && x < y) || (!lower && x > y) }
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	minA, maxA := extent(a)
	minB, maxB := extent(b)
	allBetter, allWorse := better(maxB, minA), better(maxA, minB)
	if !lower {
		allBetter, allWorse = better(minB, maxA), better(minA, maxB)
	}
	spread := math.Max(c.a.Spread(), c.b.Spread())
	worseBy := c.change
	if !lower {
		worseBy = -worseBy
	}
	switch {
	case worseBy > bound && (spread <= bound || allWorse):
		c.verdict = "worse"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	case 10*c.wins >= 9*c.pairs && better(c.b.Median, c.a.Median) &&
		math.Abs(c.b.Median-c.a.Median) > c.a.Q3-c.a.Q1:
		c.verdict = "better"
	default:
		c.verdict = "same"
	}
	return c
}

func extent(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
