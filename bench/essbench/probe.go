package main

import (
	"crypto/sha256"
	"time"

	"essio/bench/stats"
)

// A shared VM's CPU speed drifts by a fifth or more over minutes, on every
// workload at once (bench/README.md). So essbench times a fixed CPU-bound
// probe before and after each workload process and scales run_s and
// setup_s by probeNominal over the probe's median: a run on a slow
// stretch of the host then reads about what it would on a normal one. The
// probe runs while no workload process exists, so the code under test
// cannot change its time.
const (
	// probeNominal is the probe's median time on the reference host
	// (bench/README.md), so scaled times stay close to seconds there.
	probeNominal = 0.024
	// probeRounds is how many times the probe runs on each side of the
	// workload process.
	probeRounds = 7
)

// probeBuf fits in the L2 cache, so the probe's time follows the core's
// speed rather than memory.
var probeBuf [64 << 10]byte

// probeOnce hashes probeBuf 512 times, 32 MiB of SHA-256, and returns the
// seconds it took.
func probeOnce() float64 {
	start := time.Now()
	for i := 0; i < 512; i++ {
		sum := sha256.Sum256(probeBuf[:])
		probeBuf[0] = sum[0] // the next hash depends on this one
	}
	return time.Since(start).Seconds()
}

// probeTimes runs the probe n times.
func probeTimes(n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = probeOnce()
	}
	return ts
}

// speedScale is the factor that brings times measured while the probe
// read these samples to the reference host's speed.
func speedScale(probe []float64) float64 {
	return probeNominal / stats.Median(probe)
}

// scaled returns xs times scale.
func scaled(xs []float64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * scale
	}
	return out
}
