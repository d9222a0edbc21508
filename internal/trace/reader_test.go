package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"essio/internal/sim"
)

// onlyReader hides every method of the wrapped reader except Read, so
// the source under test cannot cheat by seeking.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func readerTestRecords() []Record {
	return []Record{
		{Time: 1000, Sector: 8, Count: 2, Op: Read, Node: 0, Origin: OriginData},
		{Time: 2500, Sector: 10, Count: 8, Pending: 1, Op: Write, Node: 1, Origin: OriginMeta},
		{Time: 9000, Sector: 512, Count: 32, Op: Read, Node: 2, Origin: OriginPaging},
	}
}

func TestReaderSourceSniffsBothFormats(t *testing.T) {
	recs := readerTestRecords()
	var bin, txt bytes.Buffer
	if err := WriteAll(&bin, recs); err != nil {
		t.Fatal(err)
	}
	tw := NewTextWriter(&txt)
	for _, r := range recs {
		if err := tw.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, format, want string
		data               []byte
	}{
		{"binary auto", FormatAuto, FormatBinary, bin.Bytes()},
		{"text auto", "", FormatText, txt.Bytes()},
		{"binary explicit", FormatBinary, FormatBinary, bin.Bytes()},
		{"text explicit", FormatText, FormatText, txt.Bytes()},
	} {
		src, err := NewReaderSource(onlyReader{bytes.NewReader(tc.data)}, tc.format)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if src.Format() != tc.want {
			t.Errorf("%s: format = %q, want %q", tc.name, src.Format(), tc.want)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatalf("%s: collect: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Errorf("%s: records differ:\n got %v\nwant %v", tc.name, got, recs)
		}
	}
}

func TestReaderSourceBatchReads(t *testing.T) {
	var recs []Record
	for i := 0; i < 3*DefaultBatchLen/2; i++ {
		recs = append(recs, Record{Time: sim.Time(i + 1), Sector: uint32(i), Count: 1})
	}
	var bin bytes.Buffer
	if err := WriteAll(&bin, recs); err != nil {
		t.Fatal(err)
	}
	src, err := NewReaderSource(onlyReader{&bin}, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	got, err := colsAll(src, DefaultBatchLen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("batch read returned %d records, want %d (or contents differ)", len(got), len(recs))
	}
}

func TestReaderSourceEmptyAndBadFormat(t *testing.T) {
	src, err := NewReaderSource(onlyReader{bytes.NewReader(nil)}, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if src.Format() != FormatBinary {
		t.Errorf("empty stream sniffed as %q, want %q", src.Format(), FormatBinary)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("empty stream Next error = %v, want io.EOF", err)
	}

	if _, err := NewReaderSource(onlyReader{bytes.NewReader(nil)}, "csv"); err == nil {
		t.Error("unknown format accepted")
	}
}
