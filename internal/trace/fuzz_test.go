package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// decodeTwice decodes data with a fresh decoder per pass — record by
// record through Next, and through NextCols at a ragged batch size
// derived from the input length — and requires both passes to yield the
// same records and the same accept or reject outcome, a truncated
// trailing record included.
func decodeTwice(t *testing.T, data []byte, open func([]byte) decoder) {
	t.Helper()
	perRecord, rerr := nextAll(open(data))
	max := 1 + len(data)%7
	batched, berr := colsAll(open(data), max)
	if (rerr == nil) != (berr == nil) {
		t.Fatalf("Next error %v, NextCols(%d) error %v", rerr, max, berr)
	}
	if !recsEqual(perRecord, batched) {
		t.Fatalf("Next decoded %d records, NextCols(%d) %d (or contents differ)",
			len(perRecord), max, len(batched))
	}
}

// validateRecord checks the invariants the hardened decoders guarantee on
// every record they accept.
func validateRecord(t *testing.T, r Record) {
	t.Helper()
	if r.Time < 0 {
		t.Fatalf("decoder accepted negative time: %+v", r)
	}
	if r.Op > Write {
		t.Fatalf("decoder accepted invalid op: %+v", r)
	}
	if int(r.Origin) >= len(originNames) {
		t.Fatalf("decoder accepted invalid origin: %+v", r)
	}
}

func FuzzDecodeBinary(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteAll(&valid, fileTestRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:RecordSize])
	f.Add(valid.Bytes()[:RecordSize-1]) // truncated record
	f.Add([]byte{})
	f.Add(make([]byte, RecordSize))   // zero record
	f.Add(make([]byte, 3*RecordSize)) // several zero records
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[16] = 0xff // invalid op
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeTwice(t, data, func(b []byte) decoder { return NewReader(bytes.NewReader(b)) })
		recs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, never panic
		}
		for _, r := range recs {
			validateRecord(t, r)
		}
		// Accepted input must round-trip exactly.
		var out bytes.Buffer
		if err := WriteAll(&out, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding our own encoding: %v", err)
		}
		if len(again) == 0 {
			again = []Record{}
		}
		if len(recs) == 0 {
			recs = []Record{}
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("binary round trip diverged: %v vs %v", again, recs)
		}
	})
}

func FuzzDecodeColumnar(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteCol(&valid, fileTestRecords()); err != nil {
		f.Fatal(err)
	}
	vb := valid.Bytes()
	f.Add(vb)
	f.Add([]byte{})
	f.Add(vb[:len(colMagic)]) // magic only: empty trace
	// Truncated headers: cut inside the magic, inside the block header,
	// and inside the first column payload.
	f.Add(vb[:len(colMagic)-3])
	f.Add(vb[:len(colMagic)+colHeaderLen/2])
	f.Add(vb[:len(vb)-5])
	// Corrupt varint runs: continuation bits forced high in a payload.
	corruptVarint := append([]byte(nil), vb...)
	for i := len(colMagic) + colHeaderLen; i < len(corruptVarint); i++ {
		corruptVarint[i] |= 0x80
	}
	f.Add(corruptVarint)
	// Column-length mismatch: the header claims more records than the
	// encoded columns carry.
	overCount := append([]byte(nil), vb...)
	overCount[len(colMagic)] = 0xff
	f.Add(overCount)
	zeroCount := append([]byte(nil), vb...)
	zeroCount[len(colMagic)] = 0
	f.Add(zeroCount)
	// Bogus encoding tags and oversized column declarations.
	badEnc := append([]byte(nil), vb...)
	badEnc[len(colMagic)+4] = 0x7f
	f.Add(badEnc)
	bigCol := append([]byte(nil), vb...)
	bigCol[len(colMagic)+4+3] = 0xff // high byte of column 0's size
	f.Add(bigCol)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadCol(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, never panic
		}
		for _, r := range recs {
			validateRecord(t, r)
		}
		// Accepted input must round-trip exactly, and the mapped decoder
		// must agree with the streaming one on the re-encoded bytes.
		var out bytes.Buffer
		if err := WriteCol(&out, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCol(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding our own encoding: %v", err)
		}
		if len(again) == 0 {
			again = []Record{}
		}
		if len(recs) == 0 {
			recs = []Record{}
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("columnar round trip diverged: %v vs %v", again, recs)
		}
		ms, err := newMappedColSource(out.Bytes())
		if err != nil {
			t.Fatalf("mapped decoder rejected our own encoding: %v", err)
		}
		mapped := []Record{}
		for {
			r, err := ms.Next()
			if err != nil {
				break
			}
			mapped = append(mapped, r)
		}
		if !reflect.DeepEqual(mapped, recs) {
			t.Fatalf("mapped decode diverged: %v vs %v", mapped, recs)
		}
	})
}

func FuzzDecodeText(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteText(&valid, fileTestRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(textHeader + "\n")
	f.Add("")
	f.Add("# comment only\n")
	f.Add("0.000001\tR\t100\t8\t0\t0\tdata\n")
	f.Add("0.000001\tR\t100\t8\t0\t0\tbogus\n")   // bad origin
	f.Add("NaN\tR\t100\t8\t0\t0\tdata\n")         // bad time
	f.Add("-1\tW\t100\t8\t0\t0\tdata\n")          // negative time
	f.Add("1e300\tW\t100\t8\t0\t0\tdata\n")       // out-of-range time
	f.Add("0.5\tX\t100\t8\t0\t0\tdata\n")         // bad op
	f.Add("0.5\tR\t100\t8\t0\t0\n")               // missing field
	f.Add("0.5\tR\t99999999999\t8\t0\t0\tdata\n") // sector overflow
	f.Add("0.5\tR\t100\t8\t0\t999\tdata\n")       // node overflow
	f.Add("time_s\top\tsector\tcount\tpending\tnode\torigin\n0.25\tW\t7\t2\t1\t3\tswap\n")

	f.Fuzz(func(t *testing.T, text string) {
		decodeTwice(t, []byte(text), func(b []byte) decoder { return NewTextReader(bytes.NewReader(b)) })
		recs, err := ReadText(bytes.NewReader([]byte(text)))
		if err != nil {
			return // malformed input must error, never panic
		}
		for _, r := range recs {
			validateRecord(t, r)
		}
		// Accepted input must survive an encode/decode cycle unchanged:
		// the parser's time bound keeps the seconds conversion exact.
		var out bytes.Buffer
		if err := WriteText(&out, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing our own encoding: %v", err)
		}
		if len(again) == 0 {
			again = []Record{}
		}
		if len(recs) == 0 {
			recs = []Record{}
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("text round trip diverged: %v vs %v", again, recs)
		}
	})
}
