package essd

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sync"

	"essio/internal/trace"
)

// contentHasher folds the canonical binary encoding of a record stream
// into a sha256. Text uploads hash identically to their binary
// re-encoding, so the content address names the trace, not the wire
// format it happened to arrive in.
type contentHasher struct {
	h   hash.Hash
	buf [trace.RecordSize]byte
}

func newContentHasher() *contentHasher {
	return &contentHasher{h: sha256.New()}
}

func (c *contentHasher) add(r trace.Record) {
	r.Marshal(c.buf[:])
	c.h.Write(c.buf[:])
}

func (c *contentHasher) addCols(cols *trace.ColBatch) {
	for i, n := 0, cols.Len(); i < n; i++ {
		c.add(cols.Record(i))
	}
}

// sum renders the content address, "sha256:<hex>".
func (c *contentHasher) sum() string {
	return "sha256:" + hex.EncodeToString(c.h.Sum(nil))
}

// HashRecords computes the content address of an in-memory trace — the
// key POST /v1/models caches under. Exposed so tests and clients can
// predict cache keys.
func HashRecords(recs []trace.Record) string {
	c := newContentHasher()
	for _, r := range recs {
		c.add(r)
	}
	return c.sum()
}

// traceStore retains ingested traces by content address so later
// /v1/models fits can reference them without re-uploading. Bounded:
// when full, new ingests simply aren't retained (the ingest response
// reports stored:false) — admission control for memory, not an error.
type traceStore struct {
	mu     sync.Mutex
	max    int
	traces map[string][]trace.Record
}

func newTraceStore(max int) *traceStore {
	return &traceStore{max: max, traces: make(map[string][]trace.Record)}
}

// put retains recs under key; reports whether it was (or already was)
// stored.
func (s *traceStore) put(key string, recs []trace.Record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.traces[key]; ok {
		return true
	}
	if len(s.traces) >= s.max {
		return false
	}
	s.traces[key] = recs
	return true
}

func (s *traceStore) get(key string) ([]trace.Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, ok := s.traces[key]
	return recs, ok
}

func (s *traceStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.traces)
}

// modelCache holds fitted WorkloadModel JSON documents keyed by the
// content address of the trace they were fitted from. The cache is
// content-addressed and first-fit-wins: refitting byte-identical input
// is a hit regardless of who uploaded it.
type modelCache struct {
	mu     sync.Mutex
	models map[string][]byte
}

func newModelCache() *modelCache {
	return &modelCache{models: make(map[string][]byte)}
}

func (c *modelCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.models[key]
	return b, ok
}

// putIfAbsent caches doc under key unless a fit raced us there first;
// it returns the canonical cached document either way.
func (c *modelCache) putIfAbsent(key string, doc []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.models[key]; ok {
		return b
	}
	c.models[key] = doc
	return doc
}

func (c *modelCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.models)
}
