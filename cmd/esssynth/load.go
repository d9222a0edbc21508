package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"essio"
	"essio/internal/model"
	"essio/internal/synth"
	"essio/internal/trace"
)

// runLoad is the essd load generator: it drives N concurrent synthetic
// trace streams at a running daemon and reports ingest latency
// percentiles plus admission-control rejections. Each stream uploads a
// seeded, deterministic trace (sampled from -m when given, fabricated
// otherwise), so any server-side corruption shows up as a record-count
// or hash mismatch and is counted as an incorrect response.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	url := fs.String("url", "http://localhost:9406", "essd base URL")
	streams := fs.Int("streams", 32, "concurrent synthetic streams")
	records := fs.Int("records", 10000, "records per stream")
	seed := fs.Int64("seed", 1, "base seed; stream i uses seed+i")
	modelPath := fs.String("m", "", "sample records from this model (default: fabricated)")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-stream HTTP timeout")
	query := fs.String("query", "", "extra query string for /v1/traces (e.g. \"hist=1&queue=1\")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streams <= 0 || *records <= 0 {
		return fmt.Errorf("need positive -streams and -records")
	}

	var m *model.WorkloadModel
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		var rerr error
		m, rerr = model.ReadJSON(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
	}

	// Pre-encode every stream's upload so the measured latency is the
	// daemon's, not the generator's.
	bodies := make([][]byte, *streams)
	wantRecords := make([]int, *streams)
	for i := range bodies {
		recs, err := loadRecords(m, *seed+int64(i), *records)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, recs); err != nil {
			return err
		}
		bodies[i] = buf.Bytes()
		wantRecords[i] = len(recs)
	}

	target := *url + "/v1/traces"
	if *query != "" {
		target += "?" + *query
	}
	// Expect: 100-continue defers each body until the daemon commits to
	// reading it, so an admission 429 arrives as a clean response rather
	// than a broken pipe halfway through a multi-megabyte upload.
	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost:   *streams,
			ExpectContinueTimeout: time.Second,
		},
	}
	latencies := make([]time.Duration, *streams)
	var ok, rejected, incorrect atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(bodies[i]))
			if err != nil {
				incorrect.Add(1)
				fmt.Fprintf(os.Stderr, "stream %d: %v\n", i, err)
				return
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			req.Header.Set("Expect", "100-continue")
			resp, err := client.Do(req)
			if err != nil {
				incorrect.Add(1)
				fmt.Fprintf(os.Stderr, "stream %d: %v\n", i, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
			case http.StatusTooManyRequests:
				rejected.Add(1)
				io.Copy(io.Discard, resp.Body)
				return
			default:
				incorrect.Add(1)
				b, _ := io.ReadAll(resp.Body)
				fmt.Fprintf(os.Stderr, "stream %d: status %d: %s\n", i, resp.StatusCode, b)
				return
			}
			done, err := drainEvents(resp.Body)
			latencies[i] = time.Since(t0)
			if err != nil || done.Event != "done" || done.Records != wantRecords[i] {
				incorrect.Add(1)
				fmt.Fprintf(os.Stderr, "stream %d: event %q records %d (want %d) err %v\n",
					i, done.Event, done.Records, wantRecords[i], err)
				return
			}
			ok.Add(1)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	served := make([]time.Duration, 0, *streams)
	var totalRecords int64
	for i, l := range latencies {
		if l > 0 {
			served = append(served, l)
			totalRecords += int64(wantRecords[i])
		}
	}
	sort.Slice(served, func(a, b int) bool { return served[a] < served[b] })
	fmt.Printf("essd load: %d streams x %d records against %s\n", *streams, *records, target)
	fmt.Printf("  ok %d  rejected(429) %d  incorrect %d  wall %.2fs\n",
		ok.Load(), rejected.Load(), incorrect.Load(), wall.Seconds())
	if len(served) > 0 {
		fmt.Printf("  ingest latency p50 %s  p95 %s  p99 %s  max %s\n",
			pct(served, 50), pct(served, 95), pct(served, 99), served[len(served)-1])
		fmt.Printf("  throughput %.0f records/s (%0.1f MB/s)\n",
			float64(totalRecords)/wall.Seconds(),
			float64(totalRecords)*trace.RecordSize/1e6/wall.Seconds())
	}
	if incorrect.Load() > 0 {
		return fmt.Errorf("%d incorrect responses", incorrect.Load())
	}
	return nil
}

// loadRecords produces one stream's deterministic upload: model-driven
// when a model was given, a seeded fabrication otherwise.
func loadRecords(m *model.WorkloadModel, seed int64, n int) ([]trace.Record, error) {
	if m != nil {
		return synth.Generate(m, synth.Options{Seed: uint64(seed)}, n)
	}
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	t := int64(0)
	for i := range recs {
		t += int64(rng.Intn(5000) + 1)
		recs[i] = trace.Record{
			Time:    essio.Time(t),
			Sector:  uint32(rng.Intn(1024000)),
			Count:   uint16(2 << rng.Intn(5)),
			Pending: uint16(rng.Intn(6)),
			Op:      trace.Op(rng.Intn(2)),
			Node:    uint8(rng.Intn(16)),
			Origin:  trace.Origin(1 + rng.Intn(6)),
		}
	}
	return recs, nil
}

// loadEvent mirrors essd's NDJSON ingest event shape.
type loadEvent struct {
	Event   string `json:"event"`
	Records int    `json:"records"`
	Hash    string `json:"hash"`
	Error   string `json:"error"`
}

func drainEvents(r io.Reader) (loadEvent, error) {
	var last loadEvent
	dec := json.NewDecoder(r)
	for {
		var ev loadEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return last, nil
		} else if err != nil {
			return last, err
		}
		last = ev
	}
}

// pct reads the p-th percentile from sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}
