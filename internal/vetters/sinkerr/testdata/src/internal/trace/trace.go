// Stub of the repo's trace package, laid out the way sinkerr expects:
// Sink/ColSink interfaces plus a concrete sink implementing them.
package trace

// Record is one trace record.
type Record struct{ Sector uint32 }

// ColBatch is a columnar batch of records.
type ColBatch struct{ Sectors []uint32 }

// Sink consumes records one at a time.
type Sink interface{ Add(Record) error }

// ColSink consumes whole columnar batches.
type ColSink interface{ AddCols(*ColBatch) error }

// Writer is a buffered sink; all four audited methods return error.
type Writer struct{}

func (w *Writer) Add(Record) error        { return nil }
func (w *Writer) AddCols(*ColBatch) error { return nil }
func (w *Writer) Flush() error            { return nil }
func (w *Writer) Close() error            { return nil }

// FileSource is a reader; its Close is not on the write path and the
// analyzer must leave it alone.
type FileSource struct{}

func (f *FileSource) Close() error { return nil }
