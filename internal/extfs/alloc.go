package extfs

import (
	"fmt"
	"math/bits"

	"essio/internal/sim"
	"essio/internal/trace"
)

// firstClear returns the lowest clear bit of bitmap bm, where bit i is
// bm[i/8]>>(i%8)&1, or 8*len(bm) when every bit is set. Full bytes are
// skipped whole.
func firstClear(bm []byte) uint32 {
	for i, b := range bm {
		if b != 0xFF {
			return uint32(i)*8 + uint32(bits.TrailingZeros8(^b))
		}
	}
	return uint32(len(bm)) * 8
}

// allocInodeIn allocates an inode, preferring the given group and scanning
// forward (wrapping) from it. Inode numbers are 1-based.
func (f *FS) allocInodeIn(p *sim.Proc, group int) (uint32, error) {
	if f.sb.FreeInodes == 0 {
		return 0, fmt.Errorf("extfs: out of inodes")
	}
	n := len(f.groups)
	for i := 0; i < n; i++ {
		g := (group + i) % n
		gd := &f.groups[g]
		if gd.FreeInodes == 0 {
			continue
		}
		var found uint32
		err := f.updateBlock(p, gd.InodeBitmap, trace.OriginMeta, func(bm []byte) {
			if idx := firstClear(bm[:InodesPerGroup/8]); idx < InodesPerGroup {
				bm[idx/8] |= 1 << (idx % 8)
				found = uint32(g)*InodesPerGroup + idx + 1
			}
		})
		if err != nil {
			return 0, err
		}
		if found != 0 {
			gd.FreeInodes--
			f.sb.FreeInodes--
			return found, nil
		}
	}
	return 0, fmt.Errorf("extfs: inode bitmaps inconsistent with superblock")
}

// freeInode releases an inode number.
func (f *FS) freeInode(p *sim.Proc, ino uint32) error {
	g, idx, err := f.inodeLoc(ino)
	if err != nil {
		return err
	}
	gd := &f.groups[g]
	cleared := false
	err = f.updateBlock(p, gd.InodeBitmap, trace.OriginMeta, func(bm []byte) {
		if bm[idx/8]&(1<<(idx%8)) != 0 {
			bm[idx/8] &^= 1 << (idx % 8)
			cleared = true
		}
	})
	if err != nil {
		return err
	}
	if !cleared {
		return fmt.Errorf("extfs: double free of inode %d", ino)
	}
	gd.FreeInodes++
	f.sb.FreeInodes++
	return nil
}

// inodeLoc maps an inode number to (group, index-within-group).
func (f *FS) inodeLoc(ino uint32) (int, uint32, error) {
	if ino == 0 || ino > uint32(len(f.groups))*InodesPerGroup {
		return 0, 0, fmt.Errorf("extfs: inode %d out of range", ino)
	}
	return int((ino - 1) / InodesPerGroup), (ino - 1) % InodesPerGroup, nil
}

// allocBlockNear allocates one data block, preferring the given group.
func (f *FS) allocBlockNear(p *sim.Proc, group int) (uint32, error) {
	if f.sb.FreeBlocks == 0 {
		return 0, fmt.Errorf("extfs: out of blocks")
	}
	n := len(f.groups)
	for i := 0; i < n; i++ {
		g := (group + i) % n
		gd := &f.groups[g]
		if gd.FreeBlocks == 0 {
			continue
		}
		var found uint32
		err := f.updateBlock(p, gd.BlockBitmap, trace.OriginMeta, func(bm []byte) {
			if idx := firstClear(bm[:BlocksPerGroup/8]); idx < BlocksPerGroup {
				bm[idx/8] |= 1 << (idx % 8)
				found = uint32(1) + uint32(g)*BlocksPerGroup + idx
			}
		})
		if err != nil {
			return 0, err
		}
		if found != 0 {
			gd.FreeBlocks--
			f.sb.FreeBlocks--
			return found, nil
		}
	}
	return 0, fmt.Errorf("extfs: block bitmaps inconsistent with superblock")
}

// freeBlock releases a data block.
func (f *FS) freeBlock(p *sim.Proc, blk uint32) error {
	if blk < 1 || blk >= f.sb.BlocksCount {
		return fmt.Errorf("extfs: block %d out of range", blk)
	}
	g := int((blk - 1) / BlocksPerGroup)
	idx := (blk - 1) % BlocksPerGroup
	gd := &f.groups[g]
	cleared := false
	err := f.updateBlock(p, gd.BlockBitmap, trace.OriginMeta, func(bm []byte) {
		if bm[idx/8]&(1<<(idx%8)) != 0 {
			bm[idx/8] &^= 1 << (idx % 8)
			cleared = true
		}
	})
	if err != nil {
		return err
	}
	if !cleared {
		return fmt.Errorf("extfs: double free of block %d", blk)
	}
	gd.FreeBlocks++
	f.sb.FreeBlocks++
	return nil
}
