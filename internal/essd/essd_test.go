package essd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"essio/internal/characterize"
	"essio/internal/experiment"
	"essio/internal/obs"
	"essio/internal/sim"
	"essio/internal/trace"
)

// testRecords fabricates a deterministic trace with enough variety to
// exercise every characterization section: mixed ops, origins, sizes,
// sectors across bands, and non-trivial queue depths.
func testRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Time:    sim.Time(1000 * (i + 1)),
			Sector:  uint32((i * 7919) % 1024000),
			Count:   uint16(2 + (i%8)*2),
			Pending: uint16(i % 5),
			Op:      trace.Op(i % 2),
			Node:    uint8(i % 4),
			Origin:  trace.Origin(1 + i%6),
		}
	}
	return recs
}

func encodeBinary(t *testing.T, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, recs); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// lastEvent posts body to url and returns the final NDJSON event.
func lastEvent(t *testing.T, client *http.Client, url string, body io.Reader) ingestEvent {
	t.Helper()
	resp, err := client.Post(url, "application/octet-stream", body)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var last ingestEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev ingestEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode event: %v", err)
		}
		last = ev
	}
	return last
}

// TestIngestMatchesBatchCharacterization is the core round-trip: a
// streamed upload's characterization must equal the batch CLI path
// byte for byte, for both wire formats, and both must hash to the same
// content address.
func TestIngestMatchesBatchCharacterization(t *testing.T) {
	recs := testRecords(5000)
	opts := characterize.DefaultOptions()
	opts.Label = "e1"
	opts.Hist, opts.Spatial, opts.Temporal, opts.Queue, opts.Origins = true, true, true, true, true
	want, n, err := characterize.Characterize(trace.SliceSource(recs), opts)
	if err != nil {
		t.Fatalf("batch characterize: %v", err)
	}
	if n != len(recs) {
		t.Fatalf("batch characterize consumed %d records, want %d", n, len(recs))
	}

	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	url := ts.URL + "/v1/traces?label=e1&hist=1&spatial=1&temporal=1&queue=1&origins=1"

	done := lastEvent(t, ts.Client(), url, bytes.NewReader(encodeBinary(t, recs)))
	if done.Event != "done" {
		t.Fatalf("final event %q (error %q), want done", done.Event, done.Error)
	}
	if done.Records != len(recs) {
		t.Errorf("streamed %d records, want %d", done.Records, len(recs))
	}
	if done.Characterization != want {
		t.Errorf("streamed characterization diverges from batch output:\n--- streamed ---\n%s--- batch ---\n%s",
			done.Characterization, want)
	}
	if want := HashRecords(recs); done.Hash != want {
		t.Errorf("hash %s, want %s", done.Hash, want)
	}

	// The text encoding of the same records must characterize and hash
	// identically: the content address names the trace, not the format.
	var text bytes.Buffer
	if err := trace.WriteText(&text, recs); err != nil {
		t.Fatalf("write text: %v", err)
	}
	textDone := lastEvent(t, ts.Client(), url, &text)
	if textDone.Characterization != want || textDone.Hash != done.Hash {
		t.Errorf("text upload diverges: hash %s vs %s", textDone.Hash, done.Hash)
	}

	// So must the columnar encoding: the sniffer recognizes the column
	// magic, and the characterization flows through the zero-copy column
	// views — still byte-identical and content-addressed the same.
	var col bytes.Buffer
	if err := trace.WriteCol(&col, recs); err != nil {
		t.Fatalf("write col: %v", err)
	}
	colDone := lastEvent(t, ts.Client(), url, &col)
	if colDone.Event != "done" {
		t.Fatalf("columnar upload final event %q (error %q), want done", colDone.Event, colDone.Error)
	}
	if colDone.Records != len(recs) {
		t.Errorf("columnar upload streamed %d records, want %d", colDone.Records, len(recs))
	}
	if colDone.Characterization != want {
		t.Errorf("columnar upload characterization diverges from batch output:\n--- columnar ---\n%s--- batch ---\n%s",
			colDone.Characterization, want)
	}
	if colDone.Hash != done.Hash {
		t.Errorf("columnar upload hash %s, want %s", colDone.Hash, done.Hash)
	}
}

func TestIngestEmptyTrace(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	done := lastEvent(t, ts.Client(), ts.URL+"/v1/traces", strings.NewReader(""))
	if done.Event != "done" || done.Records != 0 {
		t.Fatalf("got event %q records %d, want done/0", done.Event, done.Records)
	}
	if done.Characterization != "empty trace\n" {
		t.Errorf("characterization %q, want empty trace", done.Characterization)
	}
}

// TestModelCacheByContentHash exercises miss → hit on re-upload, GET
// by hash, and fitting from a stored ingest without re-uploading.
func TestModelCacheByContentHash(t *testing.T) {
	recs := testRecords(2000)
	body := encodeBinary(t, recs)
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()

	post := func(url string, body io.Reader) (*http.Response, []byte) {
		resp, err := ts.Client().Post(url, "application/octet-stream", body)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp, doc := post(ts.URL+"/v1/models?label=e1", bytes.NewReader(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit status %d: %s", resp.StatusCode, doc)
	}
	if got := resp.Header.Get("X-Essd-Cache"); got != "miss" {
		t.Errorf("first fit cache header %q, want miss", got)
	}
	hash := resp.Header.Get("X-Essd-Model-Hash")
	if want := HashRecords(recs); hash != want {
		t.Errorf("model hash %s, want %s", hash, want)
	}

	resp2, doc2 := post(ts.URL+"/v1/models?label=e1", bytes.NewReader(body))
	if got := resp2.Header.Get("X-Essd-Cache"); got != "hit" {
		t.Errorf("refit cache header %q, want hit", got)
	}
	if !bytes.Equal(doc, doc2) {
		t.Error("refit returned a different document than the cached fit")
	}

	getResp, err := ts.Client().Get(ts.URL + "/v1/models/" + hash)
	if err != nil {
		t.Fatalf("get model: %v", err)
	}
	got, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK || !bytes.Equal(got, doc) {
		t.Errorf("GET /v1/models/%s status %d, doc match %v", hash, getResp.StatusCode, bytes.Equal(got, doc))
	}

	// Fit from a retained ingest: upload with store=1, then reference by
	// hash. Same content address → cache hit, no body needed.
	done := lastEvent(t, ts.Client(), ts.URL+"/v1/traces?store=1", bytes.NewReader(body))
	if !done.Stored {
		t.Fatalf("ingest with store=1 not stored")
	}
	resp3, doc3 := post(ts.URL+"/v1/models?trace="+done.Hash, nil)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Essd-Cache") != "hit" {
		t.Errorf("stored-trace fit: status %d cache %q, want 200/hit",
			resp3.StatusCode, resp3.Header.Get("X-Essd-Cache"))
	}
	if !bytes.Equal(doc3, doc) {
		t.Error("stored-trace fit returned a different document")
	}

	missResp, _ := post(ts.URL+"/v1/models?trace=sha256:nope", nil)
	if missResp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown stored trace: status %d, want 404", missResp.StatusCode)
	}
}

// blockingBatch returns a runBatch stub that signals each pickup on
// started and holds the worker until release is closed.
func blockingBatch(started chan string, release chan struct{}) func([]experiment.Config, int, *obs.Registry) ([]*experiment.Result, error) {
	return func(cfgs []experiment.Config, workers int, reg *obs.Registry) ([]*experiment.Result, error) {
		started <- string(cfgs[0].Kind)
		<-release
		res := make([]*experiment.Result, len(cfgs))
		for i, c := range cfgs {
			res[i] = &experiment.Result{Kind: c.Kind, Nodes: c.Nodes, Finished: true}
		}
		return res, nil
	}
}

func postExperiment(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatalf("post experiment: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func experimentStatus(t *testing.T, ts *httptest.Server, id string) expStatus {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/experiments/" + id)
	if err != nil {
		t.Fatalf("get experiment: %v", err)
	}
	defer resp.Body.Close()
	var st expStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// TestExperimentAdmissionControl saturates a one-worker, depth-one
// queue and requires the next request to bounce with 429 + Retry-After
// while the admitted ones still complete correctly.
func TestExperimentAdmissionControl(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	started := make(chan string, 4)
	release := make(chan struct{})
	srv.runBatch = blockingBatch(started, release)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	r1 := postExperiment(t, ts, `{"kind":"baseline","small":true}`)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first enqueue status %d, want 202", r1.StatusCode)
	}
	var first expStatus
	if err := json.NewDecoder(r1.Body).Decode(&first); err != nil {
		t.Fatalf("decode enqueue response: %v", err)
	}
	<-started // worker is now wedged on job 1; queue is empty

	r2 := postExperiment(t, ts, `{"kind":"ppm","small":true}`)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second enqueue status %d, want 202 (queue has room)", r2.StatusCode)
	}

	r3 := postExperiment(t, ts, `{"kind":"nbody","small":true}`)
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third enqueue status %d, want 429", r3.StatusCode)
	}
	if got := r3.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After %q, want 3", got)
	}

	bad := postExperiment(t, ts, `{"kind":"warp-drive"}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind status %d, want 400", bad.StatusCode)
	}

	close(release)
	<-started // job 2 picked up
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := experimentStatus(t, ts, first.ID)
		if st.Status == "done" {
			if !st.Finished {
				t.Errorf("job %s done but finished=false", first.ID)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in status %q", first.ID, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExperimentRunsRealBaseline drives the actual deterministic
// machinery end to end: enqueue a small baseline run and poll until
// its records, duration, and obs snapshot come back.
func TestExperimentRunsRealBaseline(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Workers: 1}))
	defer ts.Close()

	resp := postExperiment(t, ts, `{"kind":"baseline","small":true,"nodes":2,"seed":7,"obs":"counters"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue status %d, want 202", resp.StatusCode)
	}
	var st expStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Seed != 7 {
		t.Errorf("seed %d, want 7", st.Seed)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		got := experimentStatus(t, ts, st.ID)
		if got.Status == "done" {
			if got.Records == 0 {
				t.Error("baseline run produced zero records")
			}
			if got.Duration <= 0 {
				t.Errorf("duration %v, want > 0", got.Duration)
			}
			if got.ObsSnapshot == nil {
				t.Error("no obs snapshot on completed run")
			}
			if got.Summary == "" {
				t.Error("no summary on completed run")
			}
			break
		}
		if got.Status == "failed" {
			t.Fatalf("baseline run failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("baseline run stuck in status %q", got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if resp, err := ts.Client().Get(ts.URL + "/v1/experiments/e999"); err != nil {
		t.Fatalf("get missing experiment: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing experiment status %d, want 404", resp.StatusCode)
		}
	}
}

// TestGracefulShutdownDrains verifies Shutdown's contract: admitted
// work finishes, new work is refused with 503, and the call returns
// once the pool is idle.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	started := make(chan string, 4)
	release := make(chan struct{})
	srv.runBatch = blockingBatch(started, release)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postExperiment(t, ts, `{"kind":"baseline","small":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue status %d", resp.StatusCode)
	}
	var st expStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	<-started

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(t.Context()) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	if hz, err := ts.Client().Get(ts.URL + "/healthz"); err != nil {
		t.Fatalf("healthz: %v", err)
	} else {
		hz.Body.Close()
		if hz.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining healthz status %d, want 503", hz.StatusCode)
		}
	}
	if r := postExperiment(t, ts, `{"kind":"ppm","small":true}`); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post while draining status %d, want 503", r.StatusCode)
	}
	if ing, err := ts.Client().Post(ts.URL+"/v1/traces", "application/octet-stream",
		strings.NewReader("")); err != nil {
		t.Fatalf("ingest while draining: %v", err)
	} else {
		ing.Body.Close()
		if ing.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("ingest while draining status %d, want 503", ing.StatusCode)
		}
	}

	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v before in-flight run finished", err)
	default:
	}

	close(release)
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after drain")
	}
	if got := experimentStatus(t, ts, st.ID); got.Status != "done" {
		t.Errorf("drained job status %q, want done", got.Status)
	}
}

// TestIngestAdmissionControl holds the single upload slot open with a
// pipe and requires concurrent uploads (trace and model alike — they
// share the semaphore) to bounce with 429.
func TestIngestAdmissionControl(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{MaxIngest: 1}))
	defer ts.Close()

	pr, pw := io.Pipe()
	// Closing the pipe ends the held upload, which ts.Close waits for.
	defer pw.Close()
	firstDone := make(chan ingestEvent, 1)
	go func() {
		firstDone <- lastEvent(t, ts.Client(), ts.URL+"/v1/traces", pr)
	}()

	// Send the rival only once the held upload owns the slot. A rival
	// sent earlier can take the slot first and get the held upload
	// rejected instead, and the server then sends that 429 only after
	// reading the rest of its body.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mresp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		page, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if strings.Contains(string(page), "\nessio_wall_ingest_active 1\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the held upload never took the upload slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/models", "application/octet-stream",
		bytes.NewReader(encodeBinary(t, testRecords(8))))
	if err != nil {
		t.Fatalf("rival post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rival got status %d while the upload slot was held, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	if _, err := pw.Write(encodeBinary(t, testRecords(4))); err != nil {
		t.Fatalf("pipe write: %v", err)
	}
	pw.Close()
	done := <-firstDone
	if done.Event != "done" || done.Records != 4 {
		t.Errorf("held upload finished with event %q records %d, want done/4", done.Event, done.Records)
	}
}

// TestMetricsExposition checks the scrape page carries both domains:
// wall/* daemon series and sched/* sim series, merged but disjoint.
func TestMetricsExposition(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Workers: 1}))
	defer ts.Close()

	lastEvent(t, ts.Client(), ts.URL+"/v1/traces", bytes.NewReader(encodeBinary(t, testRecords(100))))
	resp := postExperiment(t, ts, `{"kind":"baseline","small":true,"nodes":2,"obs":"counters"}`)
	var st expStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for experimentStatus(t, ts, st.ID).Status != "done" {
		if time.Now().After(deadline) {
			t.Fatal("experiment never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	page := string(body)
	for _, want := range []string{
		"essio_wall_ingest_streams",
		"essio_wall_ingest_records",
		"essio_wall_http_ingest_requests",
		"essio_wall_exp_completed",
		"essio_sched_runs",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	// Every series must live in exactly one domain: wall-clock metrics
	// under wall/*, deterministic scheduler metrics under sched/*.
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.IndexAny(line, " {")
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		name := line[:i]
		if !strings.HasPrefix(name, "essio_wall_") && !strings.HasPrefix(name, "essio_sched_") {
			t.Errorf("metric %q outside wall/sched domains", name)
		}
	}
}

// TestExperimentIOTraceEndpoint covers the three answers of
// GET /v1/experiments/{id}/iotrace: 409 while the run is in flight,
// 404 with a hint when the run finished without collecting a journal,
// and the Chrome trace-event JSON once a trace-level run is done.
func TestExperimentIOTraceEndpoint(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Workers: 1}))
	defer ts.Close()

	getTrace := func(id string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/experiments/" + id + "/iotrace")
		if err != nil {
			t.Fatalf("get iotrace: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read iotrace body: %v", err)
		}
		return resp.StatusCode, body
	}

	if code, _ := getTrace("e999"); code != http.StatusNotFound {
		t.Errorf("unknown job iotrace status %d, want 404", code)
	}

	wait := func(id string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := experimentStatus(t, ts, id)
			if st.Status == "done" {
				return
			}
			if st.Status == "failed" {
				t.Fatalf("run %s failed: %s", id, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s stuck in status %q", id, st.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// A counters-level run finishes without a journal: 404 plus a hint.
	resp := postExperiment(t, ts, `{"kind":"baseline","small":true,"nodes":2,"obs":"counters"}`)
	var plain expStatus
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if code, _ := getTrace(plain.ID); code != http.StatusConflict {
		// The run may already be done on a fast machine; both answers
		// are legal before we wait, so only the post-wait check is hard.
		_ = code
	}
	wait(plain.ID)
	code, body := getTrace(plain.ID)
	if code != http.StatusNotFound || !strings.Contains(string(body), "obs") {
		t.Errorf("counters-level run iotrace = %d %q, want 404 with obs=trace hint", code, body)
	}

	// A trace-level run serves Perfetto-loadable Chrome JSON.
	resp = postExperiment(t, ts, `{"kind":"baseline","small":true,"nodes":2,"obs":"trace"}`)
	var traced expStatus
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		t.Fatalf("decode: %v", err)
	}
	wait(traced.ID)
	code, body = getTrace(traced.ID)
	if code != http.StatusOK {
		t.Fatalf("trace-level run iotrace status %d: %s", code, body)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("iotrace body is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Errorf("iotrace doc unit=%q events=%d, want ms and > 0", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
}
