package buffercache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"essio/internal/blockio"
	"essio/internal/disk"
	"essio/internal/driver"
	"essio/internal/sim"
	"essio/internal/trace"
)

type rig struct {
	e     *sim.Engine
	disk  *disk.Disk
	q     *blockio.Queue
	ring  *trace.Ring
	cache *Cache
}

func newRig(t *testing.T, capacity int) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	t.Cleanup(e.Close)
	d := disk.New(e, disk.DefaultParams())
	q := blockio.New(e)
	ring := trace.NewRing(1 << 16)
	drv := driver.New(e, d, q, 0, ring)
	drv.SetLevel(driver.LevelFull)
	return &rig{e: e, disk: d, q: q, ring: ring, cache: New(e, q, capacity)}
}

// run executes fn as a simulated process and drains the engine.
func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.e.Spawn("test", fn)
	r.e.RunUntilIdle()
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.cache.ReadBlock(p, 10, trace.OriginData); err != nil {
			t.Error(err)
		}
		if _, err := r.cache.ReadBlock(p, 10, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	s := r.cache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("Misses=%d Hits=%d, want 1/1", s.Misses, s.Hits)
	}
	if got := len(r.ring.Drain(0)); got != 1 {
		t.Fatalf("%d physical reads, want 1", got)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	r := newRig(t, 64)
	in := bytes.Repeat([]byte{0xC3}, BlockSize)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 7, in, trace.OriginData); err != nil {
			t.Error(err)
		}
		got, err := r.cache.ReadBlock(p, 7, trace.OriginData)
		if err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, in) {
			t.Error("read-after-write mismatch")
		}
	})
	// Write-back: nothing hits the disk until a flush.
	if got := len(r.ring.Drain(0)); got != 0 {
		t.Fatalf("%d physical I/Os before flush, want 0", got)
	}
	if r.cache.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", r.cache.DirtyCount())
	}
}

func TestSyncPersistsToDisk(t *testing.T) {
	r := newRig(t, 64)
	in := bytes.Repeat([]byte{0x7E}, BlockSize)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 5, in, trace.OriginData); err != nil {
			t.Error(err)
		}
		if err := r.cache.Sync(p); err != nil {
			t.Error(err)
		}
	})
	if r.cache.DirtyCount() != 0 {
		t.Fatalf("DirtyCount after sync = %d", r.cache.DirtyCount())
	}
	out := make([]byte, BlockSize)
	if err := r.disk.ReadAt(5*SectorsPerBlock, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("disk contents wrong after sync")
	}
}

func TestWritebackAllAsync(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		for i := uint32(0); i < 5; i++ {
			if err := r.cache.WriteBlock(p, i, make([]byte, BlockSize), trace.OriginData); err != nil {
				t.Error(err)
			}
		}
	})
	n := r.cache.WritebackAll(trace.OriginLog)
	if n != 5 {
		t.Fatalf("WritebackAll = %d, want 5", n)
	}
	r.e.RunUntilIdle()
	if r.cache.DirtyCount() != 0 {
		t.Fatalf("DirtyCount = %d after writeback completes", r.cache.DirtyCount())
	}
	// Contiguous dirty blocks must have merged into one physical write.
	recs := r.ring.Drain(0)
	if len(recs) != 1 || recs[0].KB() != 5 {
		t.Fatalf("writeback produced %d requests (first %v); want one 5 KB request", len(recs), recs)
	}
}

func TestRedirtyDuringFlightStaysDirty(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 9, bytes.Repeat([]byte{1}, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	r.cache.WritebackAll(trace.OriginData) // write in flight
	// Re-dirty while the write-back is still in flight.
	r.e.Spawn("redirty", func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 9, bytes.Repeat([]byte{2}, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	r.e.RunUntilIdle()
	if r.cache.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d; re-dirtied block must stay dirty", r.cache.DirtyCount())
	}
}

func TestEvictionLRU(t *testing.T) {
	r := newRig(t, 4)
	r.run(t, func(p *sim.Proc) {
		for i := uint32(0); i < 4; i++ {
			if _, err := r.cache.ReadBlock(p, i, trace.OriginData); err != nil {
				t.Error(err)
			}
		}
		// Touch block 0 so block 1 is LRU.
		if _, err := r.cache.ReadBlock(p, 0, trace.OriginData); err != nil {
			t.Error(err)
		}
		if _, err := r.cache.ReadBlock(p, 100, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	if r.cache.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", r.cache.Len())
	}
	r.ring.Drain(0)
	// Block 0 must still be a hit; block 1 must re-miss.
	r.run(t, func(p *sim.Proc) {
		if _, err := r.cache.ReadBlock(p, 0, trace.OriginData); err != nil {
			t.Error(err)
		}
		if _, err := r.cache.ReadBlock(p, 1, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	recs := r.ring.Drain(0)
	if len(recs) != 1 || recs[0].Sector != 1*SectorsPerBlock {
		t.Fatalf("expected exactly one re-read of block 1, got %v", recs)
	}
}

func TestDirtyEvictionFlushesFirst(t *testing.T) {
	r := newRig(t, 2)
	in := bytes.Repeat([]byte{0xAB}, BlockSize)
	r.run(t, func(p *sim.Proc) {
		// Fill the whole cache with dirty blocks so the next allocation
		// has no clean victim and must flush block 50 (the LRU) first.
		if err := r.cache.WriteBlock(p, 50, in, trace.OriginData); err != nil {
			t.Error(err)
		}
		if err := r.cache.WriteBlock(p, 60, bytes.Repeat([]byte{0xCD}, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
		if _, err := r.cache.ReadBlock(p, 0, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	out := make([]byte, BlockSize)
	if err := r.disk.ReadAt(50*SectorsPerBlock, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("dirty block lost on eviction")
	}
}

func TestPrefetchAvoidsLaterMiss(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		blocks := []uint32{20, 21, 22, 23}
		if err := r.cache.Prefetch(p, blocks, trace.OriginData); err != nil {
			t.Error(err)
		}
		p.Sleep(100 * sim.Millisecond) // let the reads land
		for _, b := range blocks {
			if _, err := r.cache.ReadBlock(p, b, trace.OriginData); err != nil {
				t.Error(err)
			}
		}
	})
	s := r.cache.Stats()
	if s.Prefetches != 4 {
		t.Fatalf("Prefetches = %d, want 4", s.Prefetches)
	}
	if s.Misses != 0 || s.Hits != 4 {
		t.Fatalf("Misses=%d Hits=%d after prefetch", s.Misses, s.Hits)
	}
	// The four contiguous prefetches must merge into one physical read.
	recs := r.ring.Drain(0)
	if len(recs) != 1 || recs[0].KB() != 4 {
		t.Fatalf("prefetch produced %v, want one 4 KB read", recs)
	}
}

func TestReadDuringPrefetchWaits(t *testing.T) {
	r := newRig(t, 64)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.Prefetch(p, []uint32{30}, trace.OriginData); err != nil {
			t.Error(err)
		}
		// Immediately read the same block: must wait for the in-flight
		// I/O, not issue a second one.
		if _, err := r.cache.ReadBlock(p, 30, trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	recs := r.ring.Drain(0)
	if len(recs) != 1 {
		t.Fatalf("%d physical reads, want 1", len(recs))
	}
}

func TestUpdateBlockReadModifyWrite(t *testing.T) {
	r := newRig(t, 16)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 3, make([]byte, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
		if err := r.cache.Sync(p); err != nil {
			t.Error(err)
		}
		if err := r.cache.UpdateBlock(p, 3, trace.OriginMeta, func(d []byte) { d[100] = 0xEE }); err != nil {
			t.Error(err)
		}
		got, err := r.cache.ReadBlock(p, 3, trace.OriginData)
		if err != nil {
			t.Error(err)
		}
		if got[100] != 0xEE {
			t.Error("update not visible")
		}
	})
	if r.cache.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d after update", r.cache.DirtyCount())
	}
}

func TestWriteBlockWrongSize(t *testing.T) {
	r := newRig(t, 16)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 0, make([]byte, 100), trace.OriginData); err == nil {
			t.Error("want error for short write")
		}
	})
}

func TestInvalidate(t *testing.T) {
	r := newRig(t, 16)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.cache.ReadBlock(p, 8, trace.OriginData); err != nil {
			t.Error(err)
		}
		if err := r.cache.WriteBlock(p, 9, make([]byte, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	if !r.cache.Invalidate(8) {
		t.Fatal("clean block must invalidate")
	}
	if r.cache.Invalidate(9) {
		t.Fatal("dirty block must not invalidate")
	}
	if r.cache.Invalidate(12345) {
		t.Fatal("absent block must not invalidate")
	}
}

// checkLRU verifies the cache's list invariants: both lists are linked
// consistently and strictly ordered by stamp, every buffer sits on the
// list its dirty flag names and is the resident buffer for its block, the
// lengths agree with Len and DirtyCount, and the victim and wait choices
// equal those of the single recency list the split replaced.
func checkLRU(c *Cache) error {
	var merged []*buffer
	for _, l := range []*lru{&c.clean, &c.dirty} {
		n := 0
		for b, prev := l.root.next, &l.root; b != &l.root; b, prev = b.next, b {
			if b.prev != prev {
				return fmt.Errorf("block %d: broken prev link", b.block)
			}
			if prev != &l.root && prev.stamp <= b.stamp {
				return fmt.Errorf("block %d (stamp %d) behind block %d (stamp %d)", b.block, b.stamp, prev.block, prev.stamp)
			}
			if b.dirty != (l == &c.dirty) {
				return fmt.Errorf("block %d (dirty=%v) on the wrong list", b.block, b.dirty)
			}
			if c.blocks[b.block] != b {
				return fmt.Errorf("block %d: listed buffer is not resident", b.block)
			}
			merged = append(merged, b)
			n++
		}
		if n != l.len {
			return fmt.Errorf("list holds %d buffers, len says %d", n, l.len)
		}
	}
	if c.clean.len+c.dirty.len != c.Len() {
		return fmt.Errorf("clean %d + dirty %d != Len %d", c.clean.len, c.dirty.len, c.Len())
	}
	dirty := 0
	for _, b := range c.blocks {
		if b.dirty {
			dirty++
		}
	}
	if c.DirtyCount() != dirty {
		return fmt.Errorf("DirtyCount %d, block map has %d dirty", c.DirtyCount(), dirty)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].stamp > merged[j].stamp })
	if got, want := c.findVictim(), singleListVictim(merged); got != want {
		return fmt.Errorf("findVictim = %s, single-list scan = %s", blockName(got), blockName(want))
	}
	if got, want := c.oldestBusy(), singleListOldestBusy(merged); got != want {
		return fmt.Errorf("oldestBusy = %s, single-list scan = %s", blockName(got), blockName(want))
	}
	return nil
}

func blockName(b *buffer) string {
	if b == nil {
		return "none"
	}
	return fmt.Sprintf("block %d", b.block)
}

// singleListVictim is the victim rule over one recency list (front = most
// recent): walk from the tail, take the first idle clean buffer, else the
// first idle dirty one.
func singleListVictim(lru []*buffer) *buffer {
	var dirty *buffer
	for i := len(lru) - 1; i >= 0; i-- {
		b := lru[i]
		if b.busy {
			continue
		}
		if !b.dirty {
			return b
		}
		if dirty == nil {
			dirty = b
		}
	}
	return dirty
}

// singleListOldestBusy is the buffer the everything-busy and Sync waits
// slept on before the split: the tail-most busy one.
func singleListOldestBusy(lru []*buffer) *buffer {
	for i := len(lru) - 1; i >= 0; i-- {
		if lru[i].busy {
			return lru[i]
		}
	}
	return nil
}

// Property: for arbitrary interleavings of writes, reads, read-modify-
// writes, prefetches, writebacks and syncs, the cache returns the most
// recently written contents for each block (read-your-writes), and the
// list invariants hold after every operation. Four buffers over twelve
// blocks keep eviction constant; a five-block prefetch finds every buffer
// busy and waits, and a sync right after a writeback or prefetch waits
// on in-flight I/O.
func TestQuickReadYourWrites(t *testing.T) {
	f := func(ops []uint16) bool {
		e := sim.NewEngine(6)
		defer e.Close()
		d := disk.New(e, disk.DefaultParams())
		q := blockio.New(e)
		drv := driver.New(e, d, q, 0, trace.NewRing(4096))
		drv.SetLevel(driver.LevelOff)
		cache := New(e, q, 4)
		want := map[uint32]byte{}
		ok := true
		e.Spawn("t", func(p *sim.Proc) {
			write := func(block uint32, val byte) bool {
				if err := cache.WriteBlock(p, block, bytes.Repeat([]byte{val}, BlockSize), trace.OriginData); err != nil {
					return false
				}
				want[block] = val
				return true
			}
			for i, op := range ops {
				if i > 60 {
					break
				}
				block, val := uint32(op>>3)%12, byte(i+1)
				switch op % 8 {
				case 0, 1:
					ok = write(block, val)
				case 2, 3:
					got, err := cache.ReadBlock(p, block, trace.OriginData)
					ok = err == nil && got[0] == want[block]
				case 4:
					ok = cache.UpdateBlock(p, block, trace.OriginMeta, func(d []byte) {
						copy(d, bytes.Repeat([]byte{val}, BlockSize))
					}) == nil
					want[block] = val
				case 5:
					ok = cache.Prefetch(p, []uint32{block, block + 1, block + 2, block + 3, block + 4}, trace.OriginData) == nil
				case 6:
					ok = cache.Sync(p) == nil
				case 7:
					// Re-dirty the block while its writeback is in flight.
					ok = write(block, val)
					cache.WritebackAll(trace.OriginData)
					ok = ok && write(block, val+1)
				}
				if op%5 == 0 {
					cache.WritebackAll(trace.OriginData)
				}
				if err := checkLRU(cache); err != nil {
					t.Logf("op %d (%d): %v", i, op, err)
					ok = false
				}
				if !ok {
					return
				}
			}
			if err := cache.Sync(p); err != nil {
				ok = false
			}
		})
		e.RunUntilIdle()
		if err := checkLRU(cache); err != nil {
			t.Log(err)
			return false
		}
		// After sync, disk holds the latest contents too.
		for block, val := range want {
			out := make([]byte, BlockSize)
			if err := d.ReadAt(block*SectorsPerBlock, out); err != nil {
				return false
			}
			if out[0] != val {
				return false
			}
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityPanic(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for capacity < 2")
		}
	}()
	New(e, blockio.New(e), 1)
}

// Regression test: under heavy contention (full cache, many processes
// faulting on overlapping blocks), getOrCreate used to create duplicate
// buffers for one key after parking, and evicting the orphan then deleted
// the live buffer's map entry. Every block must stay resident after its
// ReadBlock returns.
func TestContendedCacheNoOrphans(t *testing.T) {
	e := sim.NewEngine(13)
	defer e.Close()
	d := disk.New(e, disk.DefaultParams())
	q := blockio.New(e)
	drv := driver.New(e, d, q, 0, trace.NewRing(1<<16))
	drv.SetLevel(driver.LevelOff)
	cache := New(e, q, 4) // tiny: constant eviction pressure
	done := 0
	for pid := 0; pid < 6; pid++ {
		pid := pid
		e.Spawn("hammer", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				block := uint32((pid + i) % 10)
				if i%3 == 0 {
					err := cache.UpdateBlock(p, block, trace.OriginMeta, func(d []byte) {
						d[0] = byte(pid)
					})
					if err != nil {
						t.Errorf("update: %v", err)
						return
					}
				} else {
					if _, err := cache.ReadBlock(p, block, trace.OriginData); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
				if i%5 == 0 {
					cache.WritebackAll(trace.OriginMeta)
				}
				if err := checkLRU(cache); err != nil {
					t.Errorf("hammer %d op %d: %v", pid, i, err)
					return
				}
			}
			done++
		})
	}
	e.RunUntilIdle()
	if done != 6 {
		t.Fatalf("%d/6 hammers finished", done)
	}
	if cache.Len() > 4 {
		t.Fatalf("cache over capacity: %d", cache.Len())
	}
}

func TestWriteThroughHitsDiskImmediately(t *testing.T) {
	r := newRig(t, 64)
	r.cache.SetWriteThrough(true)
	r.run(t, func(p *sim.Proc) {
		if err := r.cache.WriteBlock(p, 11, bytes.Repeat([]byte{0x44}, BlockSize), trace.OriginData); err != nil {
			t.Error(err)
		}
	})
	recs := r.ring.Drain(0)
	if len(recs) != 1 || recs[0].Op != trace.Write {
		t.Fatalf("write-through produced %v, want one immediate write", recs)
	}
	if r.cache.DirtyCount() != 0 {
		t.Fatalf("DirtyCount = %d after write-through completes", r.cache.DirtyCount())
	}
	// Contents really on the platters.
	out := make([]byte, BlockSize)
	if err := r.disk.ReadAt(11*SectorsPerBlock, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0x44 {
		t.Fatal("write-through data not on disk")
	}
}
