// The multi-core characterizer: per-node traces sharded across workers,
// one Profiler per worker, folded back together with the exact
// accumulator merges. Output is deterministic and identical to the
// single-threaded Characterize of the merged trace.

package core

import (
	"runtime"
	"sort"
	"sync"

	"essio/internal/obs"
	"essio/internal/sim"
	"essio/internal/trace"
)

// ProfileParallel computes the same Profile as Characterize of the merged
// per-node traces, sharding the per-node traces across workers. workers
// <= 0 uses GOMAXPROCS. Every metric of the profile is either
// order-insensitive or per-disk, so node-disjoint sharding plus the
// accumulator Merge methods reproduce the sequential result exactly: the
// per-second rate bins are anchored at the earliest record of the whole
// trace, and per-node traces are normalized to (Time, Node, Sector) order
// first — the same normalization the sequential merge applies.
func ProfileParallel(label string, perNode [][]trace.Record, duration sim.Duration, nodes int, diskSectors uint32, workers int) *Profile {
	return ProfileParallelObs(label, perNode, duration, nodes, diskSectors, workers, nil)
}

// ProfileParallelObs is ProfileParallel with pipeline observability:
// each worker collects into a private registry at reg's level, and the
// per-worker registries are merged into reg after the workers join —
// the same shard-and-merge discipline as the profilers themselves, so
// the resulting metrics are byte-identical at any worker count. A nil
// reg runs unobserved.
func ProfileParallelObs(label string, perNode [][]trace.Record, duration sim.Duration, nodes int, diskSectors uint32, workers int, reg *obs.Registry) *Profile {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(perNode) {
		workers = len(perNode)
	}
	if workers < 1 {
		workers = 1
	}

	// Normalize the shards and find the earliest record of the whole trace
	// — the rate-bin anchor a sequential pass over the merged stream would
	// use — before any worker starts.
	traces := make([][]trace.Record, 0, len(perNode))
	anchored := false
	var t0 sim.Time
	for _, t := range perNode {
		t = normalizeTrace(t)
		traces = append(traces, t)
		if len(t) > 0 && (!anchored || t[0].Time < t0) {
			t0 = t[0].Time
			anchored = true
		}
	}

	if workers == 1 {
		p := NewProfiler(label, duration, nodes, diskSectors)
		p.Instrument(reg)
		if anchored {
			p.SetAnchor(t0)
		}
		for _, t := range traces {
			feed(p, t)
		}
		return p.Profile()
	}

	profs := make([]*Profiler, workers)
	regs := make([]*obs.Registry, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		p := NewProfiler(label, duration, nodes, diskSectors)
		if reg != nil {
			regs[w] = obs.New(reg.Level())
			p.Instrument(regs[w])
		}
		if anchored {
			p.SetAnchor(t0)
		}
		profs[w] = p
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(traces); i += workers {
				feed(p, traces[i])
			}
		}(w)
	}
	wg.Wait()

	for _, p := range profs[1:] {
		profs[0].Merge(p)
	}
	for _, r := range regs {
		reg.Merge(r)
	}
	return profs[0].Profile()
}

// normalizeTrace returns t in (Time, Node, Sector) order, stably sorting
// a copy when needed — the per-node counterpart of the normalization
// trace.MergeSlices applies, so sharded workers see each node's records
// in exactly the order the sequential merged pass would.
func normalizeTrace(t []trace.Record) []trace.Record {
	if trace.SortedByKey(t) {
		return t
	}
	c := make([]trace.Record, len(t))
	copy(c, t)
	sort.SliceStable(c, func(a, b int) bool { return trace.Less(c[a], c[b]) })
	return c
}
