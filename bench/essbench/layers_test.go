package main

import (
	"math"
	"os"
	"testing"
)

func TestFoldTopByLayer(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof-top.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := foldTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"bcache": 45, "apps": 15, "runtime": 16, "stdlib": 8, "sim": 3,
		"fs": 2, "trace": 2, "kernel": 2, "net": 1, "block": 1,
		"analysis": 1, "obs": 1, "other": 3,
	}
	sum := 0.0
	for l, v := range got {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("%s: %.6f%%, want %v%%", l, v, want[l])
		}
	}
	for l := range want {
		if _, ok := got[l]; !ok {
			t.Errorf("%s missing from the fold", l)
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
}

func TestFoldTopRejectsEmptyProfile(t *testing.T) {
	if _, err := foldTop("      flat  flat%   sum%        cum   cum%\n"); err == nil {
		t.Fatal("no error for a profile without samples")
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]float64{
		"0": 0, "10ms": 0.01, "1.50s": 1.5, "2s": 2, "1.5mins": 90, "1hrs": 3600, "250us": 0.00025, "7ns": 7e-9,
	} {
		got, err := parseDuration(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseDuration("3 parsecs"); err == nil {
		t.Error("no error for an unknown unit")
	}
}

func TestLayerFor(t *testing.T) {
	for pkg, want := range map[string]string{
		"essio/internal/apps/wavelet": "apps",
		"essio/internal/buffercache":  "bcache",
		"essio/internal/synth":        "other",
		"runtime":                     "runtime",
		"runtime/pprof":               "runtime",
		"internal/bytealg":            "runtime",
		"encoding/binary":             "stdlib",
		"main":                        "other",
		"essio":                       "other",
		"golang.org/x/tools/go/ssa":   "other",
	} {
		if got := layerFor(pkg); got != want {
			t.Errorf("layerFor(%q) = %s, want %s", pkg, got, want)
		}
	}
}
