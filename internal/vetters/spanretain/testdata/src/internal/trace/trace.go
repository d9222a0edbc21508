// Stub of the repo's trace package for the spanretain fixtures: a
// source whose NextCols hands out views of reused column buffers.
package trace

// ColBatch is a struct-of-arrays view of a run of records.
type ColBatch struct {
	Times   []int64
	Sectors []uint32
}

// ColReader hands out zero-copy column views of its decode buffers.
type ColReader struct{ batch ColBatch }

// NextCols returns a column view, valid until the next call.
func (r *ColReader) NextCols(max int) (*ColBatch, error) {
	return &r.batch, nil
}
