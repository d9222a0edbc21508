package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"essio/internal/sim"
)

// maxTextSeconds bounds a parsed timestamp: far beyond any simulated
// span, and small enough that the seconds-to-microseconds float
// conversion is exact, so text round trips are lossless.
const maxTextSeconds = 1e9

// textHeader is the column header line of the tab-separated format.
const textHeader = "time_s\top\tsector\tcount\tpending\tnode\torigin"

// TextWriter encodes records as tab-separated text incrementally. It is a
// Sink; the header line is written before the first record and Flush must
// be called when the stream ends.
type TextWriter struct {
	bw     *bufio.Writer
	header bool
}

// NewTextWriter returns a streaming encoder for the tab-separated format.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{bw: bufio.NewWriter(w)}
}

// Add writes one record (and the header, on first use).
func (t *TextWriter) Add(r Record) error {
	if !t.header {
		if err := t.writeHeader(); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(t.bw, "%.6f\t%s\t%d\t%d\t%d\t%d\t%s\n",
		r.Time.Seconds(), r.Op, r.Sector, r.Count, r.Pending, r.Node, r.Origin)
	return err
}

func (t *TextWriter) writeHeader() error {
	t.header = true
	_, err := fmt.Fprintln(t.bw, textHeader)
	return err
}

// Flush writes the header (if no record was ever added) and any buffered
// text to the underlying writer.
func (t *TextWriter) Flush() error {
	if !t.header {
		if err := t.writeHeader(); err != nil {
			return err
		}
	}
	return t.bw.Flush()
}

// WriteText writes records as tab-separated text with a header line, the
// interchange format for spreadsheets and plotting scripts. It is the
// batch form of the streaming TextWriter sink.
func WriteText(w io.Writer, recs []Record) error {
	tw := NewTextWriter(w)
	for _, r := range recs {
		if err := tw.Add(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// ParseOrigin inverts Origin.String.
func ParseOrigin(s string) (Origin, error) {
	for i, name := range originNames {
		if s == name {
			return Origin(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown origin %q", s)
}

// parseTextLine decodes one data line. skip is true for blank, header, and
// comment lines.
func parseTextLine(text string, line int) (rec Record, skip bool, err error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.HasPrefix(text, "time_s") || strings.HasPrefix(text, "#") {
		return Record{}, true, nil
	}
	f := strings.Split(text, "\t")
	if len(f) != 7 {
		return Record{}, false, fmt.Errorf("trace: line %d has %d fields, want 7", line, len(f))
	}
	secs, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("trace: line %d time: %w", line, err)
	}
	if math.IsNaN(secs) || secs < 0 || secs > maxTextSeconds {
		return Record{}, false, fmt.Errorf("trace: line %d time %q out of range", line, f[0])
	}
	rec.Time = sim.Time(sim.DurationOf(secs))
	switch f[1] {
	case "R":
		rec.Op = Read
	case "W":
		rec.Op = Write
	default:
		return Record{}, false, fmt.Errorf("trace: line %d op %q", line, f[1])
	}
	sector, err := strconv.ParseUint(f[2], 10, 32)
	if err != nil {
		return Record{}, false, fmt.Errorf("trace: line %d sector: %w", line, err)
	}
	rec.Sector = uint32(sector)
	count, err := strconv.ParseUint(f[3], 10, 16)
	if err != nil {
		return Record{}, false, fmt.Errorf("trace: line %d count: %w", line, err)
	}
	rec.Count = uint16(count)
	pending, err := strconv.ParseUint(f[4], 10, 16)
	if err != nil {
		return Record{}, false, fmt.Errorf("trace: line %d pending: %w", line, err)
	}
	rec.Pending = uint16(pending)
	node, err := strconv.ParseUint(f[5], 10, 8)
	if err != nil {
		return Record{}, false, fmt.Errorf("trace: line %d node: %w", line, err)
	}
	rec.Node = uint8(node)
	rec.Origin, err = ParseOrigin(f[6])
	if err != nil {
		return Record{}, false, fmt.Errorf("trace: line %d: %w", line, err)
	}
	return rec, false, nil
}

// TextReader parses the tab-separated format incrementally: one record per
// Next call, or a batch of parsed lines per NextCols, skipping headers and
// comments, without reading the whole file first.
type TextReader struct {
	sc   *bufio.Scanner
	line int
	cols rowCols // transposes parsed lines into a reused batch
}

// NewTextReader returns a streaming parser for the tab-separated format.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	t := &TextReader{sc: sc}
	t.cols.src = t
	return t
}

// NextCols parses up to max data lines into a view of the reader's
// reused batch, valid until the next call. A malformed line ends the
// stream with the error Next reports for it, returned together with the
// records parsed before it.
func (t *TextReader) NextCols(max int) (*ColBatch, error) { return t.cols.NextCols(max) }

// Next parses the next data line, returning io.EOF at end of input.
func (t *TextReader) Next() (Record, error) {
	for t.sc.Scan() {
		t.line++
		rec, skip, err := parseTextLine(t.sc.Text(), t.line)
		if err != nil {
			return Record{}, err
		}
		if skip {
			continue
		}
		return rec, nil
	}
	if err := t.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// ReadText parses the tab-separated format produced by WriteText. It is
// the batch form of the streaming TextReader source.
func ReadText(r io.Reader) ([]Record, error) {
	return Collect(NewTextReader(r))
}
