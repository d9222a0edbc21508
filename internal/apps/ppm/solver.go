// Package ppm implements the piecewise parabolic method astrophysics
// workload: a 2-D compressible Euler solver on structured, logically
// rectangular grids (four 240×480 grids per processor in the study), of the
// kind used for supernova explosion and accretion-flow simulations.
//
// The solver is a genuine finite-volume scheme with dimensionally split
// sweeps: piecewise parabolic (PPM) interface reconstruction with the
// standard monotonicity limiter, and an HLL Riemann flux in place of the
// original characteristic tracing (documented substitution — the memory and
// compute structure per sweep is the same).
package ppm

import (
	"fmt"
	"math"
)

// Gamma is the ratio of specific heats for the ideal-gas law.
const Gamma = 1.4

// Grid holds conserved variables (density, x/y momentum, total energy) on
// an NX×NY mesh, stored row-major with float32 like the REAL*4 production
// codes of the era.
type Grid struct {
	NX, NY int
	Rho    []float32
	MX     []float32
	MY     []float32
	E      []float32
}

// NewGrid allocates a grid.
func NewGrid(nx, ny int) *Grid {
	if nx < 8 || ny < 8 {
		panic("ppm: grid too small")
	}
	n := nx * ny
	return &Grid{
		NX: nx, NY: ny,
		Rho: make([]float32, n),
		MX:  make([]float32, n),
		MY:  make([]float32, n),
		E:   make([]float32, n),
	}
}

func (g *Grid) idx(x, y int) int { return y*g.NX + x }

// SetPrimitive sets one cell from primitive variables (ρ, vx, vy, p).
func (g *Grid) SetPrimitive(x, y int, rho, vx, vy, p float64) {
	i := g.idx(x, y)
	g.Rho[i] = float32(rho)
	g.MX[i] = float32(rho * vx)
	g.MY[i] = float32(rho * vy)
	g.E[i] = float32(p/(Gamma-1) + 0.5*rho*(vx*vx+vy*vy))
}

// InitBlast fills the grid with a dense hot circular region in an ambient
// medium — the non-spherical accretion / nova outburst class of problem.
// phase shifts the blast center so different grids hold different data.
func (g *Grid) InitBlast(phase float64) {
	cx := 0.5 + 0.2*math.Sin(phase)
	cy := 0.5 + 0.2*math.Cos(phase)
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			fx := (float64(x) + 0.5) / float64(g.NX)
			fy := (float64(y) + 0.5) / float64(g.NY)
			dx, dy := fx-cx, fy-cy
			r2 := dx*dx + dy*dy
			if r2 < 0.01 {
				g.SetPrimitive(x, y, 4.0, 0, 0, 10.0)
			} else {
				g.SetPrimitive(x, y, 1.0, 0, 0, 0.1)
			}
		}
	}
}

// InitUniform fills the grid with a constant state (testing).
func (g *Grid) InitUniform(rho, vx, vy, p float64) {
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			g.SetPrimitive(x, y, rho, vx, vy, p)
		}
	}
}

// InitSodX sets a Sod shock tube along x, mirrored so periodic boundaries
// conserve exactly: left state in the middle half, right state outside.
func (g *Grid) InitSodX() {
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if x >= g.NX/4 && x < 3*g.NX/4 {
				g.SetPrimitive(x, y, 1.0, 0, 0, 1.0)
			} else {
				g.SetPrimitive(x, y, 0.125, 0, 0, 0.1)
			}
		}
	}
}

// TotalMass returns the summed density (cell volume 1).
func (g *Grid) TotalMass() float64 {
	var s float64
	for _, v := range g.Rho {
		s += float64(v)
	}
	return s
}

// TotalEnergy returns the summed total energy.
func (g *Grid) TotalEnergy() float64 {
	var s float64
	for _, v := range g.E {
		s += float64(v)
	}
	return s
}

// MaxDensity returns the peak density.
func (g *Grid) MaxDensity() float64 {
	var m float64
	for _, v := range g.Rho {
		if float64(v) > m {
			m = float64(v)
		}
	}
	return m
}

// MinDensity returns the minimum density (positivity checks).
func (g *Grid) MinDensity() float64 {
	m := math.Inf(1)
	for _, v := range g.Rho {
		if float64(v) < m {
			m = float64(v)
		}
	}
	return m
}

// CFL returns a stable time step for the current state (dx = 1/NX).
func (g *Grid) CFL(cfl float64) float64 {
	maxSpeed := 1e-12
	for i := range g.Rho {
		rho := float64(g.Rho[i])
		if rho <= 0 {
			continue
		}
		vx := float64(g.MX[i]) / rho
		vy := float64(g.MY[i]) / rho
		p := pressure(rho, float64(g.MX[i]), float64(g.MY[i]), float64(g.E[i]))
		if p <= 0 {
			continue
		}
		c := math.Sqrt(Gamma * p / rho)
		if s := math.Abs(vx) + c; s > maxSpeed {
			maxSpeed = s
		}
		if s := math.Abs(vy) + c; s > maxSpeed {
			maxSpeed = s
		}
	}
	dx := 1.0 / float64(g.NX)
	return cfl * dx / maxSpeed
}

func pressure(rho, mx, my, e float64) float64 {
	return (Gamma - 1) * (e - 0.5*(mx*mx+my*my)/rho)
}

// state is a 1-D strip of conserved variables used by the sweeps, with the
// face and flux scratch of sweep1D, which reuses it for every strip.
type state struct {
	rho, mu, mv, e   []float64 // mu = momentum along the sweep, mv transverse
	faceL, faceR     [4][]float64
	fr, fmu, fmv, fe []float64
}

func newState(n int) *state {
	mk := func() []float64 { return make([]float64, n) }
	return &state{
		rho: mk(), mu: mk(), mv: mk(), e: mk(),
		fr: mk(), fmu: mk(), fmv: mk(), fe: mk(),
		faceL: [4][]float64{mk(), mk(), mk(), mk()},
		faceR: [4][]float64{mk(), mk(), mk(), mk()},
	}
}

// face interpolates the interface between cells a0 and a1 to fourth order
// from their outer neighbours am and a2.
func face(am, a0, a1, a2 float64) float64 {
	return (7.0/12.0)*(a0+a1) - (1.0/12.0)*(am+a2)
}

// ppmFaces computes limited parabolic interface values for one variable:
// left and right face values per cell (periodic, len(a) >= 3).
func ppmFaces(a, aL, aR []float64) {
	n := len(a)
	aL, aR = aL[:n], aR[:n]
	// Right faces; only cells 0, n-2 and n-1 reach across the boundary.
	aR[0] = face(a[n-1], a[0], a[1], a[2])
	for i := 1; i < n-2; i++ {
		aR[i] = face(a[i-1], a[i], a[i+1], a[i+2])
	}
	aR[n-2] = face(a[n-3], a[n-2], a[n-1], a[0])
	aR[n-1] = face(a[n-2], a[n-1], a[0], a[1])
	// The left face of cell i+1 is the right face of cell i.
	aL[0] = aR[n-1]
	copy(aL[1:], aR[:n-1])
	// PPM monotonicity limiting (Colella & Woodward 1984, eq. 1.10).
	for i := 0; i < n; i++ {
		ai := a[i]
		l, r := aL[i], aR[i]
		if (r-ai)*(ai-l) <= 0 {
			l, r = ai, ai // local extremum: flatten
		} else {
			d := r - l
			mid := ai - 0.5*(l+r)
			if d*mid > d*d/6 {
				l = 3*ai - 2*r
			}
			if -d*d/6 > d*mid {
				r = 3*ai - 2*l
			}
		}
		aL[i], aR[i] = l, r
	}
}

// hll computes the HLL flux between left/right conserved states for the
// 1-D Euler equations (sweep-aligned momentum mu, transverse mv).
func hll(rL, muL, mvL, eL, rR, muR, mvR, eR float64) (fr, fmu, fmv, fe float64) {
	flux := func(r, mu, mv, e float64) (float64, float64, float64, float64) {
		u := mu / r
		p := pressure(r, mu, mv, e)
		return mu, mu*u + p, mv * u, (e + p) * u
	}
	uL, uR := muL/rL, muR/rR
	pL := max(pressure(rL, muL, mvL, eL), 1e-12)
	pR := max(pressure(rR, muR, mvR, eR), 1e-12)
	cL := math.Sqrt(Gamma * pL / rL)
	cR := math.Sqrt(Gamma * pR / rR)
	sL := min(uL-cL, uR-cR)
	sR := max(uL+cL, uR+cR)
	fLr, fLmu, fLmv, fLe := flux(rL, muL, mvL, eL)
	fRr, fRmu, fRmv, fRe := flux(rR, muR, mvR, eR)
	switch {
	case sL >= 0:
		return fLr, fLmu, fLmv, fLe
	case sR <= 0:
		return fRr, fRmu, fRmv, fRe
	default:
		inv := 1 / (sR - sL)
		fr = (sR*fLr - sL*fRr + sL*sR*(rR-rL)) * inv
		fmu = (sR*fLmu - sL*fRmu + sL*sR*(muR-muL)) * inv
		fmv = (sR*fLmv - sL*fRmv + sL*sR*(mvR-mvL)) * inv
		fe = (sR*fLe - sL*fRe + sL*sR*(eR-eL)) * inv
		return
	}
}

// sweep1D advances one strip by dt with cell size dx (periodic boundaries).
func sweep1D(s *state, dtdx float64) {
	n := len(s.rho)
	// Reconstruct each variable.
	for v, a := range [4][]float64{s.rho, s.mu, s.mv, s.e} {
		ppmFaces(a, s.faceL[v], s.faceR[v])
	}
	// Interface fluxes: between cell i and i+1 use cell i's right face
	// and cell i+1's left face.
	faceL, faceR := s.faceL, s.faceR
	fr, fmu, fmv, fe := s.fr, s.fmu, s.fmv, s.fe
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = 0
		}
		rL := max(faceR[0][i], 1e-12)
		rR := max(faceL[0][j], 1e-12)
		fr[i], fmu[i], fmv[i], fe[i] = hll(
			rL, faceR[1][i], faceR[2][i], max(faceR[3][i], 1e-12),
			rR, faceL[1][j], faceL[2][j], max(faceL[3][j], 1e-12),
		)
	}
	// Conservative update.
	for i := 0; i < n; i++ {
		im := i - 1
		if i == 0 {
			im = n - 1
		}
		s.rho[i] -= dtdx * (fr[i] - fr[im])
		s.mu[i] -= dtdx * (fmu[i] - fmu[im])
		s.mv[i] -= dtdx * (fmv[i] - fmv[im])
		s.e[i] -= dtdx * (fe[i] - fe[im])
	}
}

// SweepX advances every row by dt.
func (g *Grid) SweepX(dt float64) {
	dx := 1.0 / float64(g.NX)
	s := newState(g.NX)
	for y := 0; y < g.NY; y++ {
		base := y * g.NX
		for x := 0; x < g.NX; x++ {
			s.rho[x] = float64(g.Rho[base+x])
			s.mu[x] = float64(g.MX[base+x])
			s.mv[x] = float64(g.MY[base+x])
			s.e[x] = float64(g.E[base+x])
		}
		sweep1D(s, dt/dx)
		for x := 0; x < g.NX; x++ {
			g.Rho[base+x] = float32(s.rho[x])
			g.MX[base+x] = float32(s.mu[x])
			g.MY[base+x] = float32(s.mv[x])
			g.E[base+x] = float32(s.e[x])
		}
	}
}

// SweepY advances every column by dt.
func (g *Grid) SweepY(dt float64) {
	dy := 1.0 / float64(g.NY)
	s := newState(g.NY)
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			i := g.idx(x, y)
			s.rho[y] = float64(g.Rho[i])
			s.mu[y] = float64(g.MY[i]) // sweep-aligned momentum is y
			s.mv[y] = float64(g.MX[i])
			s.e[y] = float64(g.E[i])
		}
		sweep1D(s, dt/dy)
		for y := 0; y < g.NY; y++ {
			i := g.idx(x, y)
			g.Rho[i] = float32(s.rho[y])
			g.MY[i] = float32(s.mu[y])
			g.MX[i] = float32(s.mv[y])
			g.E[i] = float32(s.e[y])
		}
	}
}

// Step advances the grid by one dimensionally split step (X then Y).
func (g *Grid) Step(dt float64) {
	g.SweepX(dt)
	g.SweepY(dt)
}

// Checkpoint summarizes the state for the end-of-run statistics file.
func (g *Grid) Checkpoint(id int) string {
	return fmt.Sprintf("grid=%d mass=%.6e energy=%.6e rhomax=%.4f rhomin=%.4f\n",
		id, g.TotalMass(), g.TotalEnergy(), g.MaxDensity(), g.MinDensity())
}
