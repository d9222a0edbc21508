// The k-way merge as a loser tree (tournament tree of losers), the
// classic replacement-selection structure: after the winner is emitted,
// replacing it replays exactly one match per tree level against the
// stored losers — ceil(log2 k) record comparisons, no interface
// dispatch beyond each input's Next, and no boxing of heap items
// through `any`. The merge fills columnar batches itself, so column
// consumers read it without a transpose.

package trace

import "io"

// mergeInput is one leaf of the loser tree: an input stream and its
// current head record.
type mergeInput struct {
	src Source
	cur Record
	ok  bool // cur holds a live record
}

// advance loads the next record of the input into cur; ok reports
// liveness afterwards.
func (m *mergeInput) advance() error {
	r, err := m.src.Next()
	if err != nil {
		m.ok = false
		if err == io.EOF {
			return nil
		}
		return err
	}
	m.cur = r
	return nil
}

// mergeSource streams the k-way merge of its inputs in (Time, Node,
// Sector) order with ties broken by input index, reproducing a stable
// sort of the concatenated inputs. It implements both Source and
// ColSource; NextCols extracts a whole batch of winners per call.
type mergeSource struct {
	ins  []mergeInput
	tree []int // [0] overall winner; [1..k-1] the loser of each match
	init bool
	err  error    // deferred terminal error once extracted records drain
	cols ColBatch // NextCols output, reused
}

// MergeSources returns a Source yielding the records of all inputs merged
// by (Time, Node, Sector). Each input must already be ordered by that key
// (per-node driver traces are, since rings preserve arrival order); ties
// across inputs resolve in input order, matching the stable sort the
// batch Merge performs. Memory use is one record per input regardless of
// trace length. The returned Source is also a ColSource, so columnar
// consumers drain it a batch at a time.
func MergeSources(srcs ...Source) Source {
	m := &mergeSource{ins: make([]mergeInput, len(srcs)), tree: make([]int, len(srcs))}
	for i, s := range srcs {
		m.ins[i].src = s
		m.ins[i].ok = true // until the first advance says otherwise
	}
	return m
}

// beats reports whether input a wins the match against input b: exhausted
// inputs lose to everything, equal records resolve to the lower input
// index (stability).
func (m *mergeSource) beats(a, b int) bool {
	ia, ib := &m.ins[a], &m.ins[b]
	if !ia.ok {
		return false
	}
	if !ib.ok {
		return true
	}
	if less(ia.cur, ib.cur) {
		return true
	}
	if less(ib.cur, ia.cur) {
		return false
	}
	return a < b
}

// build plays the initial tournament of the subtree rooted at node,
// storing each match's loser and returning its winner. Leaves occupy
// implicit nodes k..2k-1 (leaf i at node k+i).
func (m *mergeSource) build(node int) int {
	k := len(m.ins)
	if node >= k {
		return node - k
	}
	a := m.build(2 * node)
	b := m.build(2*node + 1)
	if m.beats(a, b) {
		m.tree[node] = b
		return a
	}
	m.tree[node] = a
	return b
}

// fix replays the matches from leaf's parent to the root after the leaf's
// head record changed: one comparison per level.
func (m *mergeSource) fix(leaf int) {
	k := len(m.ins)
	w := leaf
	for node := (k + leaf) / 2; node > 0; node /= 2 {
		if m.beats(m.tree[node], w) {
			m.tree[node], w = w, m.tree[node]
		}
	}
	m.tree[0] = w
}

// start loads every input's first record and plays the initial
// tournament.
func (m *mergeSource) start() error {
	m.init = true
	for i := range m.ins {
		if err := m.ins[i].advance(); err != nil {
			return err
		}
	}
	if len(m.ins) > 1 {
		m.tree[0] = m.build(1)
	}
	return nil
}

func (m *mergeSource) Next() (Record, error) {
	if !m.init {
		if err := m.start(); err != nil {
			return Record{}, err
		}
	}
	if m.err != nil {
		return Record{}, m.err
	}
	if len(m.ins) == 0 {
		return Record{}, io.EOF
	}
	w := m.tree[0]
	in := &m.ins[w]
	if !in.ok {
		return Record{}, io.EOF
	}
	r := in.cur
	if err := in.advance(); err != nil {
		m.err = err
		return Record{}, err
	}
	if len(m.ins) > 1 {
		m.fix(w)
	}
	return r, nil
}

// runnerUp returns the strongest rival of winner w: the best loser on
// w's leaf-to-root path, which is the input that would win the
// tournament if w paused. -1 when there is no rival (k == 1).
func (m *mergeSource) runnerUp(w int) int {
	k := len(m.ins)
	ru := -1
	for node := (k + w) / 2; node > 0; node /= 2 {
		c := m.tree[node]
		if ru < 0 || m.beats(c, ru) {
			ru = c
		}
	}
	return ru
}

// NextCols fills the merge's batch with up to max merged records and
// returns a view of it, valid until the next call. Run copying: per-node
// traces are long sorted runs, so after each tournament the winner keeps
// winning for many records — those are copied against the fixed
// runner-up with one comparison each, and the tree is replayed once per
// run instead of once per record.
func (m *mergeSource) NextCols(max int) (*ColBatch, error) {
	if max <= 0 {
		max = DefaultBatchLen
	}
	if !m.init {
		if err := m.start(); err != nil {
			return nil, err
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	if len(m.ins) == 0 {
		return nil, io.EOF
	}
	out := &m.cols
	out.Reset()
	for out.Len() < max {
		w := m.tree[0]
		in := &m.ins[w]
		if !in.ok {
			m.err = io.EOF
			break
		}
		ru := m.runnerUp(w)
		rival := ru >= 0 && m.ins[ru].ok
		var rc Record
		if rival {
			rc = m.ins[ru].cur
		}
		// Copy while the winner's head still beats the runner-up's
		// fixed head, preserving (Time, Node, Sector) order and
		// input-index stability on ties; with no live rival, drain.
		for {
			out.AppendRecord(in.cur)
			if err := in.advance(); err != nil {
				// Records already extracted are valid; surface the
				// error on the next call.
				m.err = err
				return out, nil
			}
			if !in.ok || out.Len() >= max {
				break
			}
			if rival && !less(in.cur, rc) && (less(rc, in.cur) || w > ru) {
				break
			}
		}
		if len(m.ins) > 1 {
			m.fix(w)
		}
	}
	if out.Len() == 0 {
		return nil, m.err
	}
	return out, nil
}
