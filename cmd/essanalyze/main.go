// Command essanalyze computes the study's characterization metrics from a
// binary trace file written by esstrace. The file is decoded incrementally
// and every requested metric is an accumulator fed from the same single
// pass, so traces of any length are processed in bounded memory. With
// -workers the file is split into record-aligned chunks analyzed
// concurrently and the per-chunk accumulators are folded back together
// with their exact Merge methods, so the output is identical to the
// sequential pass. `-i -` reads the trace from stdin, so the command
// composes in pipelines (and mirrors what the essd daemon serves).
//
// Usage:
//
//	essanalyze -i wavelet.trc -nodes 16               # Table 1 row
//	essanalyze -i combined.trc -spatial -temporal      # locality reports
//	essanalyze -i ppm.trc -hist                        # request size histogram
//	essanalyze -i combined.trc -workers 8 -spatial     # multi-core pass
//	esssynth generate ... -o - | essanalyze -i -       # stdin pipeline
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"essio"
	"essio/internal/characterize"
	"essio/internal/profiling"
	"essio/internal/trace"
)

// analyzeSequential streams the whole input through one accumulator
// set; path "-" reads stdin.
func analyzeSequential(path, format string, o characterize.Options) (*characterize.Set, int, error) {
	var src essio.TraceSource
	if path == "-" {
		rs, err := trace.NewReaderSource(os.Stdin, format)
		if err != nil {
			return nil, 0, err
		}
		src = rs
	} else {
		fs, err := essio.OpenTraceFile(path, format)
		if err != nil {
			return nil, 0, err
		}
		defer fs.Close()
		src = fs
	}
	s := characterize.New(o)
	n, err := s.Feed(src)
	return s, n, err
}

// analyzeChunked splits the file into record-aligned chunks, analyzes
// them concurrently, and folds the per-chunk accumulators in file order.
func analyzeChunked(path string, o characterize.Options, workers int) (*characterize.Set, int, error) {
	chunks, err := essio.OpenTraceFileChunks(path, workers)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		for _, c := range chunks {
			c.Close()
		}
	}()
	sets := make([]*characterize.Set, len(chunks))
	counts := make([]int, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		sets[i] = characterize.New(o)
		wg.Add(1)
		go func(i int, c *essio.TraceFileSource) {
			defer wg.Done()
			counts[i], errs[i] = sets[i].Feed(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	total := 0
	for i := 1; i < len(sets); i++ {
		sets[0].Merge(sets[i])
	}
	for _, n := range counts {
		total += n
	}
	return sets[0], total, nil
}

func main() {
	in := flag.String("i", "", "input trace file (required; - reads stdin)")
	nodes := flag.Int("nodes", 16, "number of disks the trace covers")
	label := flag.String("label", "trace", "row label")
	hist := flag.Bool("hist", false, "print request-size histogram")
	spatial := flag.Bool("spatial", false, "print spatial locality bands")
	temporal := flag.Bool("temporal", false, "print hottest sectors")
	origins := flag.Bool("origins", false, "print ground-truth origin breakdown")
	queue := flag.Bool("queue", false, "print driver queue-depth statistics")
	format := flag.String("format", "auto", "input format: auto, bin, text, or col")
	diskSectors := flag.Uint("disk", 1024000, "disk size in sectors")
	workers := flag.Int("workers", 1, "analyze the file in N concurrent chunks (0 = all cores)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "essanalyze: -i is required")
		os.Exit(2)
	}
	stopProf, perr := profiling.Start(*cpuprofile, *memprofile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "essanalyze:", perr)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "essanalyze:", err)
		}
	}()
	o := characterize.Options{
		Label:       *label,
		Nodes:       *nodes,
		Hist:        *hist,
		Spatial:     *spatial,
		Temporal:    *temporal,
		Queue:       *queue,
		Origins:     *origins,
		DiskSectors: uint32(*diskSectors),
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}

	var (
		s   *characterize.Set
		n   int
		err error
	)
	if w > 1 && *in != "-" {
		s, n, err = analyzeChunked(*in, o, w)
		if err != nil {
			// Text and columnar traces and odd-sized files cannot be
			// chunked; the sequential pass handles them (for columnar
			// files it is the mmap-backed columnar fast path).
			fmt.Fprintf(os.Stderr, "essanalyze: %v; falling back to one worker\n", err)
			s, n, err = analyzeSequential(*in, *format, o)
		}
	} else {
		s, n, err = analyzeSequential(*in, *format, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "essanalyze:", err)
		_ = stopProf()
		os.Exit(1)
	}
	fmt.Print(s.Report(n))
}
