// Package sarif turns the diagnostics of a `go vet -json` run into
// SARIF 2.1.0, the static-analysis interchange format CI systems ingest
// (GitHub code scanning, review tooling), and filters them against a
// checked-in baseline so a gate can fail only on *new* findings. It is
// shared by cmd/essvet's -sarif mode and the vettest golden harness:
// both consume the same per-package JSON stream the go command emits
// for vet tools, so the parser lives here once.
package sarif

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
)

// Diagnostic is one analyzer finding with its position split out.
type Diagnostic struct {
	Analyzer string // analyzer name ("mergefields", "spanretain", ...)
	File     string
	Line     int
	Col      int
	Message  string
}

// posnRE splits a file:line:col position.
var posnRE = regexp.MustCompile(`^(.*):(\d+):(\d+)$`)

// ParseVetJSON decodes the stream of per-package JSON objects `go vet
// -json` emits — maps of package → analyzer → diagnostics, with
// "# package" comment lines interleaved — from both output streams (the
// go command has moved the JSON between them across releases). The
// returned diagnostics are sorted by file, line, analyzer, message so
// downstream encoders and diffs are stable run to run.
func ParseVetJSON(stdout, stderr []byte) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, raw := range [][]byte{stdout, stderr} {
		// Drop "# package" comment lines, keep JSON.
		var jsonText bytes.Buffer
		for _, line := range bytes.Split(raw, []byte("\n")) {
			if bytes.HasPrefix(bytes.TrimSpace(line), []byte("#")) {
				continue
			}
			jsonText.Write(line)
			jsonText.WriteByte('\n')
		}
		dec := json.NewDecoder(&jsonText)
		for dec.More() {
			var byPkg map[string]map[string][]struct {
				Posn    string `json:"posn"`
				Message string `json:"message"`
			}
			if err := dec.Decode(&byPkg); err != nil {
				if raw = bytes.TrimSpace(raw); len(raw) == 0 {
					break
				}
				return diags, err
			}
			for _, byAnalyzer := range byPkg {
				for analyzer, list := range byAnalyzer {
					for _, d := range list {
						m := posnRE.FindStringSubmatch(d.Posn)
						if m == nil {
							continue
						}
						line, _ := strconv.Atoi(m[2])
						col, _ := strconv.Atoi(m[3])
						diags = append(diags, Diagnostic{
							Analyzer: analyzer,
							File:     m[1],
							Line:     line,
							Col:      col,
							Message:  d.Message,
						})
					}
				}
			}
		}
	}
	Sort(diags)
	return diags, nil
}

// Sort orders diagnostics by file, line, analyzer, message.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// SARIF 2.1.0 document skeleton; only the fields the format requires
// plus the ones CI viewers actually render.
type (
	sarifLog struct {
		Version string     `json:"version"`
		Schema  string     `json:"$schema"`
		Runs    []sarifRun `json:"runs"`
	}
	sarifRun struct {
		Tool    sarifTool     `json:"tool"`
		Results []sarifResult `json:"results"`
	}
	sarifTool struct {
		Driver sarifDriver `json:"driver"`
	}
	sarifDriver struct {
		Name  string      `json:"name"`
		Rules []sarifRule `json:"rules"`
	}
	sarifRule struct {
		ID string `json:"id"`
	}
	sarifResult struct {
		RuleID    string          `json:"ruleId"`
		Level     string          `json:"level"`
		Message   sarifMessage    `json:"message"`
		Locations []sarifLocation `json:"locations"`
	}
	sarifMessage struct {
		Text string `json:"text"`
	}
	sarifLocation struct {
		PhysicalLocation sarifPhysical `json:"physicalLocation"`
	}
	sarifPhysical struct {
		ArtifactLocation sarifArtifact `json:"artifactLocation"`
		Region           sarifRegion   `json:"region"`
	}
	sarifArtifact struct {
		URI string `json:"uri"`
	}
	sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn"`
	}
)

const schemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

// Encode writes diags as an indented SARIF 2.1.0 log for the named
// tool. Output is deterministic: diagnostics are sorted, the rule table
// is the sorted set of analyzer names, and encoding/json keeps struct
// field order.
func Encode(w io.Writer, tool string, diags []Diagnostic) error {
	sorted := append([]Diagnostic(nil), diags...)
	Sort(sorted)

	seen := make(map[string]bool)
	var rules []sarifRule
	for _, d := range sorted {
		if !seen[d.Analyzer] {
			seen[d.Analyzer] = true
			rules = append(rules, sarifRule{ID: d.Analyzer})
		}
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarifResult, 0, len(sorted))
	for _, d := range sorted {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.File},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	doc := sarifLog{
		Version: "2.1.0",
		Schema:  schemaURI,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: tool, Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// BaselineEntry identifies one accepted finding. Line and column are
// deliberately excluded: unrelated edits move findings around, and a
// baseline that rots on every reflow fails the build for the wrong
// person. Analyzer + file + message pins a finding tightly enough.
type BaselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Message  string `json:"message"`
}

// Baseline is the checked-in set of accepted findings.
type Baseline struct {
	Findings []BaselineEntry `json:"findings"`
}

// EncodeBaseline writes a baseline in the checked-in file's format
// (indented, trailing newline), so regenerating it produces a minimal
// diff.
func EncodeBaseline(w io.Writer, b *Baseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ParseBaseline decodes a baseline file.
func ParseBaseline(data []byte) (*Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("sarif: bad baseline: %w", err)
	}
	return &b, nil
}

// FromDiagnostics converts current findings into baseline form, for
// regenerating the checked-in file after accepting them.
func FromDiagnostics(diags []Diagnostic) *Baseline {
	b := &Baseline{Findings: []BaselineEntry{}}
	for _, d := range diags {
		b.Findings = append(b.Findings, BaselineEntry{Analyzer: d.Analyzer, File: d.File, Message: d.Message})
	}
	return b
}

// Filter splits diags into the ones covered by the baseline and the new
// ones a gate should fail on. Each baseline entry absorbs any number of
// identical findings (a suppressed pattern repeated in one file stays
// suppressed).
func (b *Baseline) Filter(diags []Diagnostic) (accepted, fresh []Diagnostic) {
	known := make(map[BaselineEntry]bool, len(b.Findings))
	for _, e := range b.Findings {
		known[e] = true
	}
	for _, d := range diags {
		if known[BaselineEntry{Analyzer: d.Analyzer, File: d.File, Message: d.Message}] {
			accepted = append(accepted, d)
		} else {
			fresh = append(fresh, d)
		}
	}
	return accepted, fresh
}
