package ppm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// gridDigest hashes the float32 bits of every conserved variable. The
// solver's values reach the experiment traces only through the byte length
// of the checkpoint lines, so the trace goldens cannot see a kernel change
// that moves one rounding; this digest can.
func gridDigest(g *Grid) string {
	h := sha256.New()
	var b [4]byte
	for _, f := range [][]float32{g.Rho, g.MX, g.MY, g.E} {
		for _, v := range f {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelBitsPinned pins the solver's output bit for bit. The grid sizes
// cover the production 240×480, the smallest grid NewGrid allows and an odd
// one, so every periodic wrap path of the stencils runs; the Sod tube pins
// SweepX alone. An optimization of the kernels must leave every digest as
// it is.
func TestKernelBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler fuses x*y+z into one rounding on arm64, ppc64,
		// s390x and riscv64, so the pinned bits are amd64's.
		t.Skipf("digests pinned on amd64, not %s", runtime.GOARCH)
	}
	blast := func(nx, ny int) func() *Grid {
		return func() *Grid {
			g := NewGrid(nx, ny)
			g.InitBlast(0)
			for i := 0; i < 6; i++ {
				g.Step(g.CFL(0.4))
			}
			return g
		}
	}
	sod := func() *Grid {
		g := NewGrid(128, 8)
		g.InitSodX()
		for i := 0; i < 30; i++ {
			g.SweepX(g.CFL(0.4))
		}
		return g
	}
	for _, tc := range []struct {
		name string
		run  func() *Grid
		want string
	}{
		{"blast240x480", blast(240, 480), "d2417e6143b50c31af6d47af8fd33f4f15f5bca36fcc45ea4fde5ff06bc0cb9b"},
		{"blast8x8", blast(8, 8), "4ceb9ef090904b3e5659a458543534548b4ed93643e593ea2871944ff2d22ef6"},
		{"blast9x13", blast(9, 13), "0581601ccf2029792013b6e9886ccc83eabae44a1620e2e0d1195a38e13e869d"},
		{"sod128x8", sod, "362484f00d5917c680ca50fca3b9eb7fb99e19556b1d2d2a19c06438feb22691"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := gridDigest(tc.run()); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
