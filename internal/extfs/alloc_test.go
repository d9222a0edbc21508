package extfs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// bitScan is the bit-by-bit search firstClear replaced: the oracle.
func bitScan(bm []byte) uint32 {
	for idx := uint32(0); idx < 8*uint32(len(bm)); idx++ {
		if bm[idx/8]&(1<<(idx%8)) == 0 {
			return idx
		}
	}
	return 8 * uint32(len(bm))
}

// TestQuickFirstClearMatchesBitScan compares firstClear with the bit scan on
// random bitmaps: a random prefix of set bits, then bits clear with a random
// probability between 1/2 and 1/257, so the first clear bit lands anywhere
// and runs of full bytes occur. Both allocators' bitmap sizes and arbitrary
// ones are scanned. A full bitmap and one whose only clear bit is the last
// are checked at both allocators' sizes.
func TestQuickFirstClearMatchesBitScan(t *testing.T) {
	f := func(seed int64, prefix, size uint16, clearOdds uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bm := make([]byte, BlockSize)
		for i := uint32(0); i < 8*BlockSize; i++ {
			if i < uint32(prefix)%(8*BlockSize+1) || rng.Intn(int(clearOdds)+2) != 0 {
				bm[i/8] |= 1 << (i % 8)
			}
		}
		for _, n := range []int{BlocksPerGroup / 8, InodesPerGroup / 8, int(size) % (BlockSize + 1)} {
			if got, want := firstClear(bm[:n]), bitScan(bm[:n]); got != want {
				t.Logf("%d-byte bitmap: firstClear %d, bit scan %d", n, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, bitsN := range []uint32{BlocksPerGroup, InodesPerGroup} {
		full := bytes.Repeat([]byte{0xFF}, int(bitsN/8))
		if got := firstClear(full); got != bitsN {
			t.Errorf("full %d-bit bitmap: firstClear %d, want %d", bitsN, got, bitsN)
		}
		full[len(full)-1] = 0x7F
		if got := firstClear(full); got != bitsN-1 {
			t.Errorf("only bit %d clear: firstClear %d", bitsN-1, got)
		}
	}
}
