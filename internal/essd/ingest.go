package essd

import (
	"encoding/json"
	"io"
	"net/http"
	"time"

	"essio/internal/characterize"
	"essio/internal/trace"
)

// ingestEvent is one NDJSON line of a /v1/traces response. The stream
// carries periodic progress events while the upload is decoded and
// ends with either a done event (whose Characterization field is the
// essanalyze report, byte for byte) or an error event.
type ingestEvent struct {
	Event            string `json:"event"`
	Records          int    `json:"records,omitempty"`
	Bytes            int64  `json:"bytes,omitempty"`
	Hash             string `json:"hash,omitempty"`
	Stored           bool   `json:"stored,omitempty"`
	Characterization string `json:"characterization,omitempty"`
	Error            string `json:"error,omitempty"`
}

// defaultProgressEvery is how many records pass between progress
// events; override per request with ?progress=N.
const defaultProgressEvery = 1 << 16

// handleTraces ingests one chunked trace stream (binary or text,
// sniffed like the CLIs) and streams characterization back while
// decoding. Query parameters mirror essanalyze's flags: label, nodes,
// disk, hist, spatial, temporal, queue, origins, format; plus store=1
// to retain the trace for later /v1/models?trace=<hash> fits and
// progress=N to tune event cadence.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !s.acquireIngest() {
		s.reject429(w, "ingest")
		return
	}
	defer s.releaseIngest()
	s.wall.gaugeAdd("wall/ingest/active", 1)
	defer s.wall.gaugeAdd("wall/ingest/active", -1)
	start := time.Now()

	opts := characterize.Options{
		Label:       r.URL.Query().Get("label"),
		Nodes:       queryInt(r, "nodes", 16),
		Hist:        queryBool(r, "hist"),
		Spatial:     queryBool(r, "spatial"),
		Temporal:    queryBool(r, "temporal"),
		Queue:       queryBool(r, "queue"),
		Origins:     queryBool(r, "origins"),
		DiskSectors: uint32(queryInt(r, "disk", 1024000)),
	}
	if opts.Label == "" {
		opts.Label = "trace"
	}
	src, err := trace.NewReaderSource(r.Body, r.URL.Query().Get("format"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(ev ingestEvent) {
		// A failed write means the client went away; the next context
		// check ends the stream, so the error carries no information.
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	var deadline time.Time
	if s.cfg.RequestTimeout > 0 {
		deadline = start.Add(s.cfg.RequestTimeout)
	}
	store := queryBool(r, "store")
	progressEvery := queryInt(r, "progress", defaultProgressEvery)
	if progressEvery <= 0 {
		progressEvery = defaultProgressEvery
	}

	set := characterize.New(opts)
	sink := set.Sink()
	hasher := newContentHasher()
	var retained []trace.Record
	records, nextProgress := 0, progressEvery
	for {
		if err := r.Context().Err(); err != nil {
			return // client went away; nothing left to tell it
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			emit(ingestEvent{Event: "error", Records: records, Error: "request timeout"})
			return
		}
		cols, err := src.NextCols(trace.DefaultBatchLen)
		if cols != nil && cols.Len() > 0 {
			// Sink errors cannot happen: every accumulator AddCols
			// returns nil by construction (essvet sinkerr would flag
			// real ones).
			_ = sink.AddCols(cols)
			hasher.addCols(cols)
			if store {
				// AppendTo copies the records out: cols is a view the
				// next NextCols call recycles, so retaining it would
				// alias reused memory — exactly what essvet spanretain
				// flags.
				retained = cols.AppendTo(retained)
			}
			records += cols.Len()
			if records >= nextProgress {
				emit(ingestEvent{Event: "progress", Records: records,
					Bytes: int64(records) * trace.RecordSize})
				nextProgress += progressEvery
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			emit(ingestEvent{Event: "error", Records: records, Error: err.Error()})
			return
		}
	}

	hash := hasher.sum()
	stored := false
	if store {
		stored = s.traces.put(hash, retained)
	}
	s.wall.count("wall/ingest/records", uint64(records))
	s.wall.count("wall/ingest/bytes", uint64(records)*trace.RecordSize)
	s.wall.count("wall/ingest/streams", 1)
	s.wall.observe("wall/ingest/latency_us", latencyBuckets(),
		time.Since(start).Microseconds())
	emit(ingestEvent{
		Event:            "done",
		Records:          records,
		Bytes:            int64(records) * trace.RecordSize,
		Hash:             hash,
		Stored:           stored,
		Characterization: set.Report(records),
	})
}
