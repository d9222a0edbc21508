// Fixtures for the sinkerr analyzer: every way a sink error can be
// dropped, next to the accepted ways of consuming it.
package use

import "essvet.test/internal/trace"

func Bare(w *trace.Writer, r trace.Record) {
	w.Add(r) // want `error result of \(\*Writer\)\.Add is discarded`
}

func BareCols(w *trace.Writer, cols *trace.ColBatch) {
	w.AddCols(cols) // want `error result of \(\*Writer\)\.AddCols is discarded`
}

func BareColSink(s trace.ColSink, cols *trace.ColBatch) {
	s.AddCols(cols) // want `error result of \(ColSink\)\.AddCols is discarded`
}

func Deferred(w *trace.Writer) {
	defer w.Flush() // want `defer error result of \(\*Writer\)\.Flush is discarded`
}

func Spawned(w *trace.Writer) {
	go w.Close() // want `go error result of \(\*Writer\)\.Close is discarded`
}

// Checked consumes every error: fine.
func Checked(w *trace.Writer, r trace.Record) error {
	if err := w.Add(r); err != nil {
		return err
	}
	return w.Flush()
}

// Discarded makes the drop explicit and visible: fine.
func Discarded(w *trace.Writer) {
	_ = w.Close()
}

// Reader closes a source, not a sink: fine.
func Reader(f *trace.FileSource) {
	f.Close()
}

// Suppressed opts out with the ignore directive.
func Suppressed(w *trace.Writer) {
	//essvet:ignore sinkerr crash-only teardown
	w.Close()
}
