package sarif_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"essio/internal/vetters/sarif"
)

// fixedDiags is the golden input: deliberately unsorted, with a repeated
// analyzer, so the test pins sorting and rule deduplication too.
func fixedDiags() []sarif.Diagnostic {
	return []sarif.Diagnostic{
		{Analyzer: "spanretain", File: "internal/essd/ingest.go", Line: 88, Col: 3,
			Message: "column view retained across NextCols"},
		{Analyzer: "mergefields", File: "internal/analysis/stream.go", Line: 41, Col: 18,
			Message: "Merge of SummaryAcc does not reference field first"},
		{Analyzer: "mergefields", File: "internal/analysis/stream.go", Line: 12, Col: 18,
			Message: "Merge of RateAcc does not reference field maxBin"},
	}
}

func TestEncodeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sarif.Encode(&buf, "essvet", fixedDiags()); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "golden.sarif")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output differs from %s:\ngot:\n%s\nwant:\n%s", goldenPath, buf.Bytes(), want)
	}
}

// TestEncodeDeterministic re-encodes a shuffled copy and demands
// byte-identical output; the baseline diff workflow depends on it.
func TestEncodeDeterministic(t *testing.T) {
	diags := fixedDiags()
	shuffled := []sarif.Diagnostic{diags[2], diags[0], diags[1]}
	var a, b bytes.Buffer
	if err := sarif.Encode(&a, "essvet", diags); err != nil {
		t.Fatal(err)
	}
	if err := sarif.Encode(&b, "essvet", shuffled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("encoding is order-sensitive; SARIF output must be deterministic")
	}
}

func TestParseVetJSON(t *testing.T) {
	stdout := []byte(`# essio/internal/analysis
{
	"essio/internal/analysis": {
		"mergefields": [
			{
				"posn": "/repo/internal/analysis/stream.go:41:18",
				"message": "Merge of SummaryAcc does not reference field first"
			}
		]
	}
}
`)
	stderr := []byte(`# essio/internal/essd
{
	"essio/internal/essd": {
		"spanretain": [
			{
				"posn": "/repo/internal/essd/ingest.go:88:3",
				"message": "column view retained across NextCols"
			}
		]
	}
}
`)
	diags, err := sarif.ParseVetJSON(stdout, stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	// Sorted by file: analysis/stream.go before essd/ingest.go.
	if diags[0].Analyzer != "mergefields" || diags[0].Line != 41 || diags[0].Col != 18 {
		t.Errorf("diags[0] = %+v", diags[0])
	}
	if diags[1].Analyzer != "spanretain" || diags[1].File != "/repo/internal/essd/ingest.go" {
		t.Errorf("diags[1] = %+v", diags[1])
	}
}

func TestParseVetJSONEmpty(t *testing.T) {
	diags, err := sarif.ParseVetJSON(nil, []byte("# essio/internal/trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("got %d diagnostics from empty run", len(diags))
	}
}

func TestBaselineFilter(t *testing.T) {
	diags := fixedDiags()
	b := &sarif.Baseline{Findings: []sarif.BaselineEntry{
		{Analyzer: "spanretain", File: "internal/essd/ingest.go",
			Message: "column view retained across NextCols"},
	}}
	accepted, fresh := b.Filter(diags)
	if len(accepted) != 1 || accepted[0].Analyzer != "spanretain" {
		t.Errorf("accepted = %+v, want the spanretain finding", accepted)
	}
	if len(fresh) != 2 {
		t.Errorf("fresh = %+v, want both mergefields findings", fresh)
	}
}

// TestBaselineRoundTrip checks FromDiagnostics output survives
// ParseBaseline and then absorbs the same findings.
func TestBaselineRoundTrip(t *testing.T) {
	diags := fixedDiags()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", ".essvet-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	checked, err := sarif.ParseBaseline(data)
	if err != nil {
		t.Fatalf("checked-in baseline does not parse: %v", err)
	}
	if accepted, _ := checked.Filter(diags); len(accepted) != 0 {
		t.Errorf("checked-in baseline unexpectedly accepts findings: %+v", accepted)
	}

	b := sarif.FromDiagnostics(diags)
	roundTripped, err := sarif.ParseBaseline(mustJSON(t, b))
	if err != nil {
		t.Fatal(err)
	}
	accepted, fresh := roundTripped.Filter(diags)
	if len(accepted) != len(diags) || len(fresh) != 0 {
		t.Errorf("round-tripped baseline: accepted %d fresh %d, want %d/0",
			len(accepted), len(fresh), len(diags))
	}
}

func mustJSON(t *testing.T, b *sarif.Baseline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sarif.EncodeBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
