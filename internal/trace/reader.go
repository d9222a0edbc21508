package trace

import (
	"bufio"
	"fmt"
	"io"
)

// decoder is what every format's decoder serves: records one at a time
// and columnar batches.
type decoder interface {
	Source
	ColSource
}

// ReaderSource is a Source decoding a trace stream from an arbitrary
// io.Reader — a pipe, a network connection, an HTTP request body —
// without ever seeking. Format sniffing peeks through a buffered
// reader instead of rewinding, so stdin pipelines and live ingestion
// work on the same open path files use. It is also a ColSource: every
// format decodes straight into columnar batches.
type ReaderSource struct {
	dec    decoder
	format string
}

// NewReaderSource wraps r as a streaming trace Source. format is
// FormatBinary, FormatText, FormatCol, or FormatAuto (the empty string
// means FormatAuto); auto-detection peeks at the first bytes without
// consuming them, so it needs no Seek. It is the non-seeking core of
// OpenFileSource and the ingest path of essd.
func NewReaderSource(r io.Reader, format string) (*ReaderSource, error) {
	switch format {
	case FormatBinary, FormatText, FormatCol, FormatAuto:
	case "":
		format = FormatAuto
	default:
		return nil, fmt.Errorf("trace: unknown format %q (want %s, %s, %s, or %s)",
			format, FormatBinary, FormatText, FormatCol, FormatAuto)
	}
	br := bufio.NewReaderSize(r, batchBytes)
	if format == FormatAuto {
		var err error
		format, err = sniffReader(br)
		if err != nil {
			return nil, err
		}
	}
	s := &ReaderSource{format: format}
	switch format {
	case FormatText:
		s.dec = NewTextReader(br)
	case FormatCol:
		s.dec = NewColReader(br)
	default:
		// NewReader re-wraps br in a same-sized bufio.Reader, which
		// bufio collapses to br itself: no double buffering.
		s.dec = NewReader(br)
	}
	return s, nil
}

// Next yields the next record of the stream.
func (s *ReaderSource) Next() (Record, error) { return s.dec.Next() }

// NextCols yields a view of up to max records of the stream.
func (s *ReaderSource) NextCols(max int) (*ColBatch, error) { return s.dec.NextCols(max) }

// Format reports the resolved encoding: FormatBinary, FormatText, or
// FormatCol.
func (s *ReaderSource) Format() string { return s.format }

// sniffReader decides among the binary, text, and columnar encodings by
// peeking at the first bytes of br without consuming them. The columnar
// magic is checked first — its leading byte is non-printable, so it can
// never be mistaken for text, and no binary record stream is misread as
// columnar because the magic check wins before the printability scan.
// The text format is pure printable ASCII with tabs and newlines (it
// opens with a header line); binary records contain NUL padding and
// timestamp bytes within the first RecordSize bytes.
func sniffReader(br *bufio.Reader) (string, error) {
	buf, err := br.Peek(256)
	if err != nil && err != io.EOF {
		return "", err
	}
	if len(buf) == 0 {
		// An empty stream is a valid empty trace in either encoding.
		return FormatBinary, nil
	}
	if len(buf) >= len(colMagic) && [len(colMagic)]byte(buf[:len(colMagic)]) == colMagic {
		return FormatCol, nil
	}
	for _, b := range buf {
		if b == '\t' || b == '\n' || b == '\r' {
			continue
		}
		if b < 0x20 || b > 0x7e {
			return FormatBinary, nil
		}
	}
	return FormatText, nil
}
