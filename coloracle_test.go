package essio_test

// The columnar pipeline's end-to-end oracle: for each of the five
// experiments (E0 baseline through E4 combined), the characterization
// computed from binary- and columnar-encoded copies of the trace must
// render byte for byte the same profile as the in-memory records. The
// codecs, the column views, and the vectorized accumulator folds are
// allowed to change the cost of the pass, never its output. The same
// runs are pinned to checked-in golden digests
// (testdata/golden-e0e4.json), so a change that shifts the trace, the
// report, the profile, or the fitted model of any experiment fails here.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"essio"
	"essio/internal/characterize"
	"essio/internal/essd"
	"essio/internal/trace"
)

// goldenE0E4Path holds the golden digests of SmallConfig(kind, 2) at
// seed 1 for every experiment kind.
const goldenE0E4Path = "testdata/golden-e0e4.json"

// e0e4Digests is one experiment's golden record: sha256 hex digests of
// the merged trace (essd's canonical binary content hash), the
// characterize report with every section on, Profile.String(), and the
// fitted model JSON.
type e0e4Digests struct {
	Trace   string `json:"trace"`
	Report  string `json:"report"`
	Profile string `json:"profile"`
	Model   string `json:"model"`
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digestE0E4 computes res's golden record.
func digestE0E4(t *testing.T, res *essio.Result) e0e4Digests {
	t.Helper()
	opts := characterize.Options{
		Label: string(res.Kind), Nodes: res.Nodes, DiskSectors: res.DiskSectors,
		Hist: true, Spatial: true, Temporal: true, Queue: true, Origins: true,
	}
	report, _, err := characterize.Characterize(res.Source(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := essio.FitModel(string(res.Kind), res.Source(), res.Nodes, res.DiskSectors, 0)
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return e0e4Digests{
		Trace:   essd.HashRecords(res.Merged),
		Report:  sha256Hex(report),
		Profile: sha256Hex(essio.CharacterizeResult(res).String()),
		Model:   sha256Hex(js.String()),
	}
}

// checkGoldenE0E4 compares the digests of every kind that ran with the
// checked-in file and, on any mismatch, prints the file this run would
// produce.
func checkGoldenE0E4(t *testing.T, got map[string]e0e4Digests) {
	want := map[string]e0e4Digests{}
	raw, err := os.ReadFile(goldenE0E4Path)
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Errorf("read %s: %v", goldenE0E4Path, err)
	}
	merged := map[string]e0e4Digests{}
	for k, d := range want {
		merged[k] = d
	}
	ok := err == nil
	for k, d := range got {
		if want[k] != d {
			t.Errorf("%s: digests differ from %s\n got: %+v\nwant: %+v", k, goldenE0E4Path, d, want[k])
			ok = false
		}
		merged[k] = d
	}
	if !ok {
		out, _ := json.MarshalIndent(merged, "", "  ")
		t.Logf("this run's %s:\n%s", goldenE0E4Path, out)
	}
}

func TestColumnarCharacterizationMatchesRowOracle(t *testing.T) {
	var mu sync.Mutex
	digests := map[string]e0e4Digests{}
	// Cleanup runs once every parallel subtest has finished.
	t.Cleanup(func() { checkGoldenE0E4(t, digests) })
	for _, kind := range essio.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			res, err := essio.Run(essio.SmallConfig(kind, 2))
			if err != nil {
				t.Fatal(err)
			}
			d := digestE0E4(t, res)
			mu.Lock()
			digests[string(kind)] = d
			mu.Unlock()

			// Row pipeline: the in-memory records, entering the columnar
			// accumulators through the row-to-column shim.
			rp := essio.Characterize(string(res.Kind), res.Merged, res.Duration, res.Nodes, res.DiskSectors)

			// Decoder pipelines: the same trace encoded with the binary and
			// the column codec, decoded straight into column views, and
			// folded through the accumulators. Both must match the rows.
			var bin bytes.Buffer
			if err := trace.WriteAll(&bin, res.Merged); err != nil {
				t.Fatal(err)
			}
			binProf := essio.NewProfiler(string(res.Kind), res.Duration, res.Nodes, res.DiskSectors)
			if _, err := trace.CopyCols(binProf, trace.NewReader(bytes.NewReader(bin.Bytes()))); err != nil {
				t.Fatal(err)
			}
			if bp := binProf.Profile(); !reflect.DeepEqual(rp, bp) {
				t.Errorf("%s: binary-decoded profile state diverged from the rows", kind)
			}
			var buf bytes.Buffer
			if err := trace.WriteCol(&buf, res.Merged); err != nil {
				t.Fatal(err)
			}
			colProf := essio.NewProfiler(string(res.Kind), res.Duration, res.Nodes, res.DiskSectors)
			n, err := trace.CopyCols(colProf, trace.NewColReader(bytes.NewReader(buf.Bytes())))
			if err != nil {
				t.Fatal(err)
			}
			if n != len(res.Merged) {
				t.Fatalf("columnar pass saw %d records, trace has %d", n, len(res.Merged))
			}

			cp := colProf.Profile()
			if !reflect.DeepEqual(rp, cp) {
				t.Errorf("%s: columnar profile state diverged from row oracle", kind)
			}
			rs, cs := rp.String(), cp.String()
			if rs != cs {
				t.Fatalf("%s: rendered profiles differ\n--- row ---\n%s\n--- columnar ---\n%s", kind, rs, cs)
			}
			// Round-trip sanity on the same trace: the decoded records are
			// exactly the originals.
			got, err := trace.ReadCol(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(res.Merged) || !reflect.DeepEqual(got, res.Merged) {
				t.Fatalf("%s: columnar round trip diverged", kind)
			}
			// And the columnar file must not cost more than the fixed-width
			// binary encoding on real experiment traces.
			if buf.Len() >= bin.Len() && len(res.Merged) > 0 {
				t.Errorf("%s: columnar file (%d bytes) not smaller than binary (%d bytes)",
					kind, buf.Len(), bin.Len())
			}
			t.Log(fmt.Sprintf("%s: %d records, binary %d bytes, columnar %d bytes (%.1f%%)",
				kind, len(res.Merged), bin.Len(), buf.Len(),
				100*float64(buf.Len())/float64(bin.Len())))
		})
	}
}
