package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Format names a trace file encoding.
const (
	// FormatBinary is the compact fixed-record binary encoding.
	FormatBinary = "bin"
	// FormatText is the tab-separated interchange encoding.
	FormatText = "text"
	// FormatAuto sniffs the encoding from the file's first bytes.
	FormatAuto = "auto"
	// FormatCol (declared in colcodec.go) is the compressed columnar
	// encoding.
)

// FileSource is a Source reading a trace file; Close releases the file.
// It remembers the resolved format so callers can report what they read.
// It is also a ColSource: every format decodes straight into columnar
// batches, and columnar files may serve views of the mapped file.
type FileSource struct {
	dec    decoder
	unmap  func() error // releases an mmap-backed columnar view
	f      *os.File
	format string
}

// Next yields the next record of the file.
func (s *FileSource) Next() (Record, error) { return s.dec.Next() }

// NextCols yields a view of up to max records of the file.
func (s *FileSource) NextCols(max int) (*ColBatch, error) { return s.dec.NextCols(max) }

// Close closes the underlying file, releasing the mapping first when
// the source is mmap-backed.
func (s *FileSource) Close() error {
	if s.unmap != nil {
		if err := s.unmap(); err != nil {
			s.f.Close()
			return err
		}
		s.unmap = nil
	}
	return s.f.Close()
}

// Format reports the resolved encoding: FormatBinary, FormatText, or
// FormatCol.
func (s *FileSource) Format() string { return s.format }

// OpenFileSource opens a trace file as a streaming Source. format is
// FormatBinary, FormatText, FormatCol, or FormatAuto (sniff); the empty
// string means FormatAuto. It is the shared open/sniff path of
// essanalyze, essreplay, and esssynth, and is NewReaderSource plus the
// file lifecycle. Columnar files are memory-mapped where the platform
// allows, so column views alias the page cache with no decode pass;
// when mapping fails the streaming columnar decoder takes over.
func OpenFileSource(path, format string) (*FileSource, error) {
	switch format {
	case FormatBinary, FormatText, FormatCol, FormatAuto, "":
	default:
		return nil, fmt.Errorf("trace: unknown format %q (want %s, %s, %s, or %s)",
			format, FormatBinary, FormatText, FormatCol, FormatAuto)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rs, err := NewReaderSource(f, format)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	if rs.Format() == FormatCol {
		if ms, unmap, merr := newColMmapFile(f); merr == nil {
			return &FileSource{dec: ms, unmap: unmap, f: f, format: FormatCol}, nil
		}
		// Mapping failed (unsupported platform, exotic file): rs has
		// consumed nothing material — its buffered reader still holds
		// the stream — so the streaming decoder serves the file.
	}
	return &FileSource{dec: rs, f: f, format: rs.Format()}, nil
}

// OpenFileChunks opens a binary trace file as n record-aligned,
// time-contiguous chunk sources covering the file in order, so independent
// workers can analyze one file in parallel and fold their accumulators
// back together with the exact concatenation merges. Fewer than n chunks
// come back when the file holds fewer than n records. It fails — and the
// caller should fall back to the sequential single-source path — when the
// file is text- or columnar-encoded, is not a whole number of records
// long, or is empty. (For columnar files the sequential fallback is the
// fast path anyway: it reads the mmap-backed columnar source.)
func OpenFileChunks(path string, n int) ([]*FileSource, error) {
	if n < 1 {
		n = 1
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	format, err := sniffReader(bufio.NewReader(f))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	if format != FormatBinary {
		f.Close()
		return nil, fmt.Errorf("trace: %s: chunked reads need the binary format", path)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	f.Close()
	size := st.Size()
	if size == 0 || size%RecordSize != 0 {
		return nil, fmt.Errorf("trace: %s: %d bytes is not a whole number of %d-byte records",
			path, size, RecordSize)
	}
	total := size / RecordSize
	if int64(n) > total {
		n = int(total)
	}
	per := (total + int64(n) - 1) / int64(n)
	chunks := make([]*FileSource, 0, n)
	for start := int64(0); start < total; start += per {
		count := per
		if start+count > total {
			count = total - start
		}
		cf, err := os.Open(path)
		if err != nil {
			closeFileSources(chunks)
			return nil, err
		}
		if _, err := cf.Seek(start*RecordSize, io.SeekStart); err != nil {
			cf.Close()
			closeFileSources(chunks)
			return nil, err
		}
		lr := io.LimitReader(cf, count*RecordSize)
		chunks = append(chunks, &FileSource{dec: NewReader(lr), f: cf, format: FormatBinary})
	}
	return chunks, nil
}

func closeFileSources(srcs []*FileSource) {
	for _, s := range srcs {
		s.Close()
	}
}
