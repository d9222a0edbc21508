// Fixtures for the spanretain analyzer: every retention point for a
// zero-copy column view, next to the legitimate consume-and-copy
// patterns.
package use

import "essvet.test/internal/trace"

var global *trace.ColBatch

type colHolder struct {
	view    *trace.ColBatch
	views   map[int]*trace.ColBatch
	sectors []uint32
	all     [][]uint32
	ch      chan *trace.ColBatch
}

func (h *colHolder) storeView(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	h.view = view // want `zero-copy column view stored in a struct field`
}

func (h *colHolder) storeGlobal(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	global = view // want `zero-copy column view stored in a package-level variable`
}

func (h *colHolder) storeMap(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	h.views[0] = view // want `zero-copy column view stored in a map or slice element`
}

func (h *colHolder) send(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	h.ch <- view // want `zero-copy column view sent on a channel`
}

func (h *colHolder) storeColumn(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	h.sectors = view.Sectors // want `zero-copy column view stored in a struct field`
}

func (h *colHolder) aliasColumnReslice(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	secs := view.Sectors[:1]
	h.sectors = secs // want `zero-copy column view stored in a struct field`
}

func (h *colHolder) appendColumn(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	h.all = append(h.all, view.Sectors) // want `zero-copy column view appended as a slice value`
}

func (h *colHolder) goroutineView(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	go func() { // want `zero-copy column view captured by a goroutine racing the view's reuse`
		sumCol(view.Sectors)
	}()
}

func (h *colHolder) deferred(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	defer func() { // want `zero-copy column view captured by a deferred closure`
		sumCol(view.Sectors)
	}()
}

func (h *colHolder) escaping(r *trace.ColReader) func() int {
	view, _ := r.NextCols(64)
	return func() int { return len(view.Sectors) } // want `zero-copy column view captured by a closure that may outlive the view`
}

// consumeCols folds the view before the next call: fine.
func consumeCols(r *trace.ColReader) uint32 {
	view, _ := r.NextCols(64)
	return sumCol(view.Sectors)
}

// copyColumnFirst breaks the alias with an element copy: fine.
func (h *colHolder) copyColumnFirst(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	h.sectors = append([]uint32(nil), view.Sectors...)
}

// adapter opts out with the ignore directive.
func (h *colHolder) adapter(r *trace.ColReader) {
	view, _ := r.NextCols(64)
	h.view = view //essvet:ignore spanretain consumed before the next refill
}

// colSink must not retain its AddCols parameter or its columns.
type colSink struct {
	last    *trace.ColBatch
	sectors []uint32
}

func (s *colSink) AddCols(cols *trace.ColBatch) error {
	s.last = cols            // want `zero-copy column view stored in a struct field`
	s.sectors = cols.Sectors // want `zero-copy column view stored in a struct field`
	return nil
}

// colForwarder passes the view on under the same contract: fine.
type colForwarder struct {
	dst *colSink
}

func (f *colForwarder) AddCols(cols *trace.ColBatch) error {
	return f.dst.AddCols(cols)
}

func sumCol(secs []uint32) uint32 {
	var t uint32
	for _, s := range secs {
		t += s
	}
	return t
}
