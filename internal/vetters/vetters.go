// Package vetters assembles the essvet static-analysis suite: the
// custom golang.org/x/tools/go/analysis analyzers that machine-check
// this repository's correctness invariants — exact accumulator merges
// (mergefields), seed-pure simulation and deterministic output order
// (determinism), read-only mmap-aliased column views (mmapalias),
// cross-shard engine isolation (sharddiscipline), consumed sink errors
// (sinkerr), and unretained zero-copy column views (spanretain) — plus
// two stock x/tools passes the repo's concurrency patterns make
// load-bearing: copylocks (the barrier WaitGroups and engine mutexes
// must never be copied) and nilfunc (comparisons of funcs against nil,
// the shape of a staged Cross callback check gone wrong). cmd/essvet
// runs them over the tree; see DESIGN.md §"Checked invariants".
package vetters

import (
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/copylock"
	"golang.org/x/tools/go/analysis/passes/nilfunc"

	"essio/internal/vetters/determinism"
	"essio/internal/vetters/mergefields"
	"essio/internal/vetters/mmapalias"
	"essio/internal/vetters/sharddiscipline"
	"essio/internal/vetters/sinkerr"
	"essio/internal/vetters/spanretain"
)

// All returns every essvet analyzer, in stable name order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		copylock.Analyzer,
		determinism.Analyzer,
		mergefields.Analyzer,
		mmapalias.Analyzer,
		nilfunc.Analyzer,
		sharddiscipline.Analyzer,
		sinkerr.Analyzer,
		spanretain.Analyzer,
	}
}
