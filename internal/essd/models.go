package essd

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"essio/internal/model"
	"essio/internal/trace"
)

// handleModelFit fits a WorkloadModel and caches it by the content
// address of the trace it was fitted from. Two input forms:
//
//	POST /v1/models                      body is a trace stream
//	POST /v1/models?trace=sha256:...     fit a previously-ingested trace
//
// Fit parameters come from query params label, nodes, disk, band
// (essynth fit's flags). The cache is content-addressed: a refit of
// byte-identical input answers from cache (X-Essd-Cache: hit) without
// fitting, and GET /v1/models/{hash} serves the same document.
func (s *Server) handleModelFit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !s.acquireIngest() {
		s.reject429(w, "model fitting")
		return
	}
	defer s.releaseIngest()
	start := time.Now()

	label := r.URL.Query().Get("label")
	if label == "" {
		label = "upload"
	}
	nodes := queryInt(r, "nodes", 0)
	disk := uint32(queryInt(r, "disk", 1024000))
	band := uint32(queryInt(r, "band", 0))

	var (
		hash string
		doc  []byte
		hit  bool
	)
	if key := r.URL.Query().Get("trace"); key != "" {
		recs, ok := s.traces.get(key)
		if !ok {
			http.Error(w, fmt.Sprintf("trace %s not in store (ingest with ?store=1 first)", key),
				http.StatusNotFound)
			return
		}
		hash = key
		if doc, hit = s.models.get(hash); !hit {
			m := model.FitSlice(label, recs, nodes, disk, band)
			var err error
			if doc, err = renderModel(m); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			doc = s.models.putIfAbsent(hash, doc)
		}
	} else {
		// One streaming pass feeds the content hasher and the fitter
		// together; the cache answers by hash once the stream ends. A
		// cache hit costs one wasted fit but never two copies of the
		// upload in memory.
		src, err := trace.NewReaderSource(r.Body, r.URL.Query().Get("format"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fitter := model.NewFitter(label, nodes, disk, band)
		hasher := newContentHasher()
		for {
			cols, nerr := src.NextCols(trace.DefaultBatchLen)
			if cols != nil && cols.Len() > 0 {
				// Fitter adds never fail.
				_ = fitter.AddCols(cols)
				hasher.addCols(cols)
			}
			if nerr == io.EOF {
				break
			}
			if nerr != nil {
				http.Error(w, nerr.Error(), http.StatusBadRequest)
				return
			}
		}
		hash = hasher.sum()
		if doc, hit = s.models.get(hash); !hit {
			if doc, err = renderModel(fitter.Model()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			doc = s.models.putIfAbsent(hash, doc)
		}
	}

	if hit {
		s.wall.count("wall/models/cache_hits", 1)
	} else {
		s.wall.count("wall/models/cache_misses", 1)
		s.wall.observe("wall/models/fit_latency_us", latencyBuckets(),
			time.Since(start).Microseconds())
	}
	writeModel(w, hash, doc, hit)
}

// handleModelGet serves a cached model document by content address.
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	doc, ok := s.models.get(hash)
	if !ok {
		http.Error(w, "no cached model for "+hash, http.StatusNotFound)
		return
	}
	s.wall.count("wall/models/cache_hits", 1)
	writeModel(w, hash, doc, true)
}

// renderModel serializes a fitted model exactly as esssynth fit writes
// it, so cached documents are drop-in model files.
func renderModel(m *model.WorkloadModel) ([]byte, error) {
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func writeModel(w http.ResponseWriter, hash string, doc []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Essd-Model-Hash", hash)
	if hit {
		w.Header().Set("X-Essd-Cache", "hit")
	} else {
		w.Header().Set("X-Essd-Cache", "miss")
	}
	_, _ = w.Write(doc)
}
