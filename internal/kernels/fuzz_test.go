package kernels

import (
	"math"
	"testing"
)

// FuzzPentaRoundTrip drives the pentadiagonal solver with arbitrary line
// lengths, stencil strengths, and data seeds: Solve(M x) must recover x.
func FuzzPentaRoundTrip(f *testing.F) {
	f.Add(uint16(5), uint8(5), uint64(1))
	f.Add(uint16(64), uint8(1), uint64(99))
	f.Add(uint16(3), uint8(19), uint64(12345))
	f.Fuzz(func(t *testing.T, nRaw uint16, epsRaw uint8, seed uint64) {
		n := int(nRaw)%200 + 3
		eps := float64(epsRaw%20+1) / 100
		g := NewLCG(seed | 1)
		x := make([]float64, n)
		for i := range x {
			x[i] = g.Next()*2 - 1
		}
		y := PentaMulAdd(x, eps)
		s := NewPentaSolver(n)
		s.SetConstant(SPStencil(eps))
		s.Solve(y)
		for i := range x {
			if math.Abs(y[i]-x[i]) > 1e-6 {
				t.Fatalf("n=%d eps=%v: mismatch at %d: %g vs %g", n, eps, i, y[i], x[i])
			}
		}
	})
}

// FuzzBlockTriRoundTrip does the same for the 5x5 block solver.
func FuzzBlockTriRoundTrip(f *testing.F) {
	f.Add(uint16(4), uint8(4), uint64(7))
	f.Add(uint16(30), uint8(9), uint64(31))
	f.Fuzz(func(t *testing.T, nRaw uint16, epsRaw uint8, seed uint64) {
		n := int(nRaw)%50 + 2
		eps := float64(epsRaw%10+1) / 100
		ab, bb, cb := BTStencil(eps, 0.3)
		g := NewLCG(seed | 1)
		x := make([]Vec5, n)
		for i := range x {
			for v := 0; v < BlockDim; v++ {
				x[i][v] = g.Next()*2 - 1
			}
		}
		r := BlockTriMul(ab, bb, cb, x)
		as := make([]Mat5, n)
		bs := make([]Mat5, n)
		cs := make([]Mat5, n)
		sol := make([]Vec5, n)
		for i := 0; i < n; i++ {
			as[i], bs[i], cs[i] = ab, bb, cb
		}
		as[0] = Mat5{}
		cs[n-1] = Mat5{}
		NewBlockTriSolver(n).Solve(as, bs, cs, r, sol)
		for i := range x {
			for v := 0; v < BlockDim; v++ {
				if math.Abs(sol[i][v]-x[i][v]) > 1e-5 {
					t.Fatalf("mismatch at %d/%d", i, v)
				}
			}
		}
	})
}

// FuzzLCGJump checks jump-ahead against sequential stepping for arbitrary
// distances and seeds.
func FuzzLCGJump(f *testing.F) {
	f.Add(uint64(DefaultNASSeed), uint16(100))
	f.Add(uint64(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16) {
		n := uint64(nRaw)
		seq := NewLCG(seed)
		for i := uint64(0); i < n; i++ {
			seq.Next()
		}
		if jmp := JumpedLCG(seed, n); jmp.x != seq.x {
			t.Fatalf("Jump(%d) diverged from sequential", n)
		}
	})
}
