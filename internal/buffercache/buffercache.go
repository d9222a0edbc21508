// Package buffercache implements the kernel's 1 KB-block buffer cache, the
// layer responsible for the dominant 1 KB request class the paper observes:
// all filesystem I/O passes through fixed 1 KB buffers, small requests
// therefore hit the disk as 1 KB transfers, and sequential streams grow to
// multi-kilobyte physical requests only through read-ahead plus elevator
// merging.
//
// The cache is write-back: writes dirty buffers in memory, and a periodic
// "update" daemon (see package kernel) pushes aged dirty buffers to disk,
// which is why the paper's baseline shows bursts of 1 KB writes even with no
// user load.
package buffercache

import (
	"fmt"

	"essio/internal/blockio"
	"essio/internal/iotrace"
	"essio/internal/obs"
	"essio/internal/sim"
	"essio/internal/trace"
)

// BlockSize is the buffer/block size in bytes (Linux 1.x ext2 default).
const BlockSize = 1024

// SectorsPerBlock is how many 512 B sectors one block covers.
const SectorsPerBlock = BlockSize / trace.SectorSize

// DefaultReadAhead is the read-ahead window in blocks (16 KB), the source of
// the paper's "requests approaching 16 KB" during streaming reads.
const DefaultReadAhead = 16

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Prefetches uint64
	Writebacks uint64
	Evictions  uint64
	FlushWaits uint64
}

// buffer is one cached block.
type buffer struct {
	block  uint32
	data   []byte
	valid  bool
	dirty  bool
	busy   bool // I/O in flight
	gen    uint64
	origin trace.Origin // who dirtied this buffer (for write-back tagging)
	req    uint64       // I/O journey that dirtied this buffer (write-back attribution)
	stamp  uint64       // recency: the cache's touch counter at the last touch
	prev   *buffer      // neighbours on the clean or dirty list, as dirty names;
	next   *buffer      // next is the less recently used side
	wq     *sim.WaitQueue
}

// lru is an intrusive list of buffers around a sentinel, ordered by stamp:
// the front (root.next) is the most recently used buffer, the back
// (root.prev) the least.
type lru struct {
	root buffer
	len  int
}

func (l *lru) init() { l.root.prev, l.root.next = &l.root, &l.root }

func (l *lru) insertAfter(b, at *buffer) {
	b.prev, b.next = at, at.next
	at.next.prev = b
	at.next = b
	l.len++
}

func (l *lru) remove(b *buffer) {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
	l.len--
}

// insert links b at its stamp position. It walks in from both ends at
// once, so a buffer that belongs near either end takes a step or two.
func (l *lru) insert(b *buffer) {
	front, back := l.root.next, l.root.prev
	for {
		if front == &l.root || front.stamp < b.stamp {
			l.insertAfter(b, front.prev)
			return
		}
		if back.stamp > b.stamp {
			l.insertAfter(b, back)
			return
		}
		front, back = front.next, back.prev
	}
}

// oldest returns the least recently used buffer whose busy flag equals
// busy, or nil.
func (l *lru) oldest(busy bool) *buffer {
	for b := l.root.prev; b != &l.root; b = b.prev {
		if b.busy == busy {
			return b
		}
	}
	return nil
}

// Cache is one node's buffer cache over one block queue.
type Cache struct {
	e            *sim.Engine
	q            *blockio.Queue
	capacity     int
	blocks       map[uint32]*buffer
	clean, dirty lru    // every resident buffer is on the list its dirty flag names
	stamp        uint64 // touch counter; orders both lists
	stats        Stats
	readAhead    int
	writeThrough bool
	om           cacheMetrics
	journal      *iotrace.Journal
}

// SetJournal attaches the node's per-request I/O journal; nil detaches.
// The cache journals hits, miss fills, and writebacks; delayed writes
// are attributed to the journey that dirtied the buffer (buffer.req),
// which is how causal attribution survives write-back.
func (c *Cache) SetJournal(j *iotrace.Journal) { c.journal = j }

// cacheMetrics holds the cache's observability handles; the zero value
// records nothing.
type cacheMetrics struct {
	hits       *obs.Counter
	misses     *obs.Counter
	prefetches *obs.Counter
	writebacks *obs.Counter
	evictions  *obs.Counter
	flushWaits *obs.Counter
	resident   *obs.Gauge
	dirty      *obs.Gauge
}

// Instrument registers the cache's metrics in reg: the hit/miss/
// writeback counters mirror Stats live, and two gauges track residency
// and dirty-buffer population with high-water marks.
func (c *Cache) Instrument(reg *obs.Registry) {
	c.om = cacheMetrics{
		hits:       reg.Counter("bcache/hits"),
		misses:     reg.Counter("bcache/misses"),
		prefetches: reg.Counter("bcache/prefetches"),
		writebacks: reg.Counter("bcache/writebacks"),
		evictions:  reg.Counter("bcache/evictions"),
		flushWaits: reg.Counter("bcache/flush_waits"),
		resident:   reg.Gauge("bcache/resident"),
		dirty:      reg.Gauge("bcache/dirty"),
	}
}

// New returns a cache of capacity blocks over queue q.
func New(e *sim.Engine, q *blockio.Queue, capacity int) *Cache {
	if capacity < 2 {
		panic("buffercache: capacity must be at least 2 blocks")
	}
	c := &Cache{
		e: e, q: q, capacity: capacity,
		blocks:    make(map[uint32]*buffer),
		readAhead: DefaultReadAhead,
	}
	c.clean.init()
	c.dirty.init()
	return c
}

// SetReadAhead changes the read-ahead window in blocks (0 disables).
func (c *Cache) SetReadAhead(blocks int) { c.readAhead = blocks }

// SetWriteThrough switches the cache to write-through: every write is
// submitted to disk immediately instead of waiting for the update daemon
// (ablation against the default write-back policy).
func (c *Cache) SetWriteThrough(on bool) { c.writeThrough = on }

// ReadAhead reports the current read-ahead window in blocks.
func (c *Cache) ReadAhead() int { return c.readAhead }

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// DirtyCount reports how many buffers are dirty.
func (c *Cache) DirtyCount() int { return c.dirty.len }

// Len reports the number of resident buffers.
func (c *Cache) Len() int { return len(c.blocks) }

// listOf returns the list b belongs on.
func (c *Cache) listOf(b *buffer) *lru {
	if b.dirty {
		return &c.dirty
	}
	return &c.clean
}

// touch makes b the most recently used buffer.
func (c *Cache) touch(b *buffer) {
	c.stamp++
	b.stamp = c.stamp
	l := c.listOf(b)
	l.remove(b)
	l.insertAfter(b, &l.root)
}

// setDirty sets b's dirty flag and moves b to the matching list at its
// stamp position. The move does not touch b, so the recency order across
// both lists is unchanged.
func (c *Cache) setDirty(b *buffer, dirty bool) {
	if b.dirty == dirty {
		return
	}
	c.listOf(b).remove(b)
	b.dirty = dirty
	c.listOf(b).insert(b)
	if dirty {
		c.om.dirty.Add(1)
	} else {
		c.om.dirty.Add(-1)
	}
}

// oldestBusy returns the least recently used busy buffer on either list,
// or nil.
func (c *Cache) oldestBusy() *buffer {
	b, d := c.clean.oldest(true), c.dirty.oldest(true)
	if b == nil || (d != nil && d.stamp < b.stamp) {
		return d
	}
	return b
}

// getOrCreate returns the buffer for block, evicting as needed. The caller
// decides validity/IO. May sleep (eviction of a dirty buffer flushes it).
func (c *Cache) getOrCreate(p *sim.Proc, block uint32) (*buffer, error) {
	for {
		// Re-check on every iteration: flushing or waiting below parks
		// this process, and another process may have created (or
		// evicted) this block's buffer in the meantime. Creating a
		// second buffer for the same key would orphan the first in the
		// LRU lists and corrupt the cache.
		if b, ok := c.blocks[block]; ok {
			c.touch(b)
			return b, nil
		}
		if len(c.blocks) < c.capacity {
			break
		}
		victim := c.findVictim()
		if victim == nil {
			// Everything is busy; wait for the oldest busy buffer.
			c.stats.FlushWaits++
			c.om.flushWaits.Inc()
			c.oldestBusy().wq.Sleep(p)
			continue
		}
		if victim.dirty {
			c.stats.FlushWaits++
			c.om.flushWaits.Inc()
			if err := c.flushBuffer(p, victim); err != nil {
				return nil, err
			}
			continue // state may have changed while sleeping
		}
		c.evict(victim)
	}
	c.stamp++
	b := &buffer{block: block, data: make([]byte, BlockSize), stamp: c.stamp, wq: sim.NewWaitQueue(c.e)}
	c.clean.insertAfter(b, &c.clean.root)
	c.blocks[block] = b
	c.om.resident.Set(int64(len(c.blocks)))
	return b, nil
}

// findVictim returns the least recently used non-busy buffer, preferring
// clean ones.
func (c *Cache) findVictim() *buffer {
	if b := c.clean.oldest(false); b != nil {
		return b
	}
	return c.dirty.oldest(false)
}

func (c *Cache) evict(b *buffer) {
	c.listOf(b).remove(b)
	if c.blocks[b.block] == b {
		delete(c.blocks, b.block)
	}
	c.stats.Evictions++
	c.om.evictions.Inc()
	c.om.resident.Set(int64(len(c.blocks)))
}

// flushBuffer synchronously writes one dirty buffer.
func (c *Cache) flushBuffer(p *sim.Proc, b *buffer) error {
	gen := b.gen
	b.busy = true
	origin := b.origin
	if origin == trace.OriginUnknown {
		origin = trace.OriginMeta
	}
	req, start := b.req, c.e.Now()
	done, err := c.q.SubmitReq(b.block*SectorsPerBlock, b.data, true, origin, req)
	if err != nil {
		b.busy = false
		return err
	}
	c.stats.Writebacks++
	c.om.writebacks.Inc()
	werr := done.Wait(p)
	b.busy = false
	if werr == nil && c.journal.Enabled() {
		c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageWriteback, req, int64(b.block))
	}
	if werr == nil && b.gen == gen {
		c.setDirty(b, false)
	}
	b.wq.WakeAll()
	return werr
}

// ReadBlock returns the contents of a block, reading it from disk on a
// miss. The returned slice aliases the cache buffer; callers must copy out
// what they keep and must not retain it across sleeps.
func (c *Cache) ReadBlock(p *sim.Proc, block uint32, origin trace.Origin) ([]byte, error) {
	for {
		b, err := c.getOrCreate(p, block)
		if err != nil {
			return nil, err
		}
		if b.busy {
			b.wq.Sleep(p)
			continue // re-lookup: the buffer may have been reused
		}
		if b.valid {
			c.stats.Hits++
			c.om.hits.Inc()
			if c.journal.Enabled() {
				c.journal.Add(c.e.Now(), 0, iotrace.StageCacheHit, p.IOTag(), int64(block))
			}
			c.touch(b)
			return b.data, nil
		}
		// Miss: read it in.
		c.stats.Misses++
		c.om.misses.Inc()
		b.busy = true
		start := c.e.Now()
		done, err := c.q.SubmitReq(block*SectorsPerBlock, b.data, false, origin, p.IOTag())
		if err != nil {
			b.busy = false
			b.wq.WakeAll()
			return nil, err
		}
		rerr := done.Wait(p)
		b.busy = false
		b.valid = rerr == nil
		b.wq.WakeAll()
		if rerr != nil {
			c.evict(b)
			return nil, rerr
		}
		if c.journal.Enabled() {
			c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageCacheMiss, p.IOTag(), int64(block))
		}
		c.touch(b)
		return b.data, nil
	}
}

// Prefetch starts asynchronous reads for any of the given blocks that are
// not resident. It may sleep while making room but does not wait for the
// reads themselves.
func (c *Cache) Prefetch(p *sim.Proc, blocks []uint32, origin trace.Origin) error {
	for _, blk := range blocks {
		if b, ok := c.blocks[blk]; ok && (b.valid || b.busy) {
			continue
		}
		b, err := c.getOrCreate(p, blk)
		if err != nil {
			return err
		}
		if b.valid || b.busy {
			continue
		}
		b.busy = true
		req, start := p.IOTag(), c.e.Now()
		done, err := c.q.SubmitReq(blk*SectorsPerBlock, b.data, false, origin, req)
		if err != nil {
			b.busy = false
			return err
		}
		c.stats.Prefetches++
		c.om.prefetches.Inc()
		bb := b
		done.OnComplete(func(ioErr error) {
			bb.busy = false
			bb.valid = ioErr == nil
			if ioErr == nil && c.journal.Enabled() {
				c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageCacheMiss, req, int64(bb.block))
			}
			bb.wq.WakeAll()
			if ioErr != nil && c.blocks[bb.block] == bb {
				c.evict(bb)
			}
		})
	}
	return nil
}

// WriteBlock replaces the contents of a block in the cache and marks it
// dirty (write-back). data must be exactly one block long.
func (c *Cache) WriteBlock(p *sim.Proc, block uint32, data []byte, origin trace.Origin) error {
	if len(data) != BlockSize {
		return fmt.Errorf("buffercache: write of %d bytes, want %d", len(data), BlockSize)
	}
	for {
		b, err := c.getOrCreate(p, block)
		if err != nil {
			return err
		}
		if b.busy {
			b.wq.Sleep(p)
			continue
		}
		copy(b.data, data)
		b.valid = true
		c.touch(b) // first, so setDirty places b at the dirty list's front
		c.setDirty(b, true)
		b.gen++
		b.origin = origin
		b.req = p.IOTag()
		c.maybeWriteThrough(b)
		return nil
	}
}

// maybeWriteThrough submits an immediate asynchronous write when the cache
// is in write-through mode.
func (c *Cache) maybeWriteThrough(b *buffer) {
	if !c.writeThrough || b.busy || !b.dirty {
		return
	}
	gen := b.gen
	b.busy = true
	req, start := b.req, c.e.Now()
	done, err := c.q.SubmitReq(b.block*SectorsPerBlock, b.data, true, b.origin, req)
	if err != nil {
		b.busy = false
		return
	}
	c.stats.Writebacks++
	c.om.writebacks.Inc()
	bb := b
	done.OnComplete(func(ioErr error) {
		bb.busy = false
		if ioErr == nil && bb.gen == gen {
			c.setDirty(bb, false)
		}
		if ioErr == nil && c.journal.Enabled() {
			c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageWriteback, req, int64(bb.block))
		}
		bb.wq.WakeAll()
	})
}

// UpdateBlock applies fn to the cached contents of a block (reading it
// first if needed) and marks it dirty — the read-modify-write path for
// partial-block writes and metadata updates.
func (c *Cache) UpdateBlock(p *sim.Proc, block uint32, origin trace.Origin, fn func(data []byte)) error {
	data, err := c.ReadBlock(p, block, origin)
	if err != nil {
		return err
	}
	b := c.blocks[block]
	if b == nil {
		// ReadBlock always leaves the block resident; see getOrCreate.
		panic(fmt.Sprintf("buffercache: block %d vanished after ReadBlock", block))
	}
	fn(data)
	c.setDirty(b, true)
	b.gen++
	b.origin = origin
	b.req = p.IOTag()
	c.maybeWriteThrough(b)
	return nil
}

// WritebackAll asynchronously submits every dirty, idle buffer for writing,
// as the periodic update daemon does. Each buffer is tagged with the origin
// that dirtied it; origin is the fallback for untagged buffers. It returns
// the number of buffers submitted. Engine-context safe.
func (c *Cache) WritebackAll(origin trace.Origin) int {
	n := 0
	// Completions run later as engine events, so the list holds still
	// during the walk.
	for b := c.dirty.root.prev; b != &c.dirty.root; b = b.prev {
		if b.busy {
			continue
		}
		gen := b.gen
		b.busy = true
		worigin := b.origin
		if worigin == trace.OriginUnknown {
			worigin = origin
		}
		req, start := b.req, c.e.Now()
		done, err := c.q.SubmitReq(b.block*SectorsPerBlock, b.data, true, worigin, req)
		if err != nil {
			b.busy = false
			continue
		}
		c.stats.Writebacks++
		c.om.writebacks.Inc()
		n++
		bb := b
		done.OnComplete(func(ioErr error) {
			bb.busy = false
			if ioErr == nil && bb.gen == gen {
				c.setDirty(bb, false)
			}
			if ioErr == nil && c.journal.Enabled() {
				c.journal.Add(c.e.Now(), c.e.Now().Sub(start), iotrace.StageWriteback, req, int64(bb.block))
			}
			bb.wq.WakeAll()
		})
	}
	return n
}

// Sync flushes every dirty buffer and waits for all of them (fsync/unmount
// path).
func (c *Cache) Sync(p *sim.Proc) error {
	for {
		victim := c.dirty.oldest(false)
		if victim == nil {
			// Wait out any in-flight I/O, oldest buffer first.
			b := c.oldestBusy()
			if b == nil {
				return nil
			}
			b.wq.Sleep(p)
			continue
		}
		if err := c.flushBuffer(p, victim); err != nil {
			return err
		}
	}
}

// InvalidateClean drops every clean, idle buffer, returning the count
// dropped. Experiments call it between software installation and
// measurement so programs start from a cold cache, as they would on a
// machine whose binaries were installed long before the run.
func (c *Cache) InvalidateClean() int {
	n := 0
	for b := c.clean.root.next; b != &c.clean.root; {
		next := b.next
		if !b.busy && b.valid {
			c.evict(b)
			n++
		}
		b = next
	}
	return n
}

// Invalidate drops a clean resident block (used by tests and unmount).
// Dirty or busy blocks are left alone and reported as false.
func (c *Cache) Invalidate(block uint32) bool {
	b, ok := c.blocks[block]
	if !ok || b.dirty || b.busy {
		return false
	}
	c.evict(b)
	return true
}
