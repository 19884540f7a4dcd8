package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func randMat5(g *LCG) Mat5 {
	var m Mat5
	for i := range m {
		m[i] = g.Next()*2 - 1
	}
	// Make it comfortably non-singular.
	for i := 0; i < BlockDim; i++ {
		m[i*BlockDim+i] += 6
	}
	return m
}

func TestMat5InvertRoundTrip(t *testing.T) {
	g := NewLCG(99)
	for trial := 0; trial < 20; trial++ {
		m := randMat5(g)
		prod := m.MulMat(m.Invert())
		id := Identity5()
		for i := range prod {
			if math.Abs(prod[i]-id[i]) > 1e-9 {
				t.Fatalf("trial %d: m*m^-1 != I at %d: %g", trial, i, prod[i])
			}
		}
	}
}

func TestMat5InvertSingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverting a singular matrix did not panic")
		}
	}()
	var zero Mat5
	zero.Invert()
}

func TestMat5Algebra(t *testing.T) {
	g := NewLCG(3)
	a, b := randMat5(g), randMat5(g)
	var v Vec5
	for i := range v {
		v[i] = g.Next()
	}
	// (a*b)*v == a*(b*v)
	lhs := a.MulMat(b).MulVec(v)
	rhs := a.MulVec(b.MulVec(v))
	for i := range lhs {
		if math.Abs(lhs[i]-rhs[i]) > 1e-9 {
			t.Fatalf("associativity broken at %d", i)
		}
	}
	// I*v == v
	iv := Identity5().MulVec(v)
	if iv != v {
		t.Error("identity multiply changed the vector")
	}
}

func TestBlockTriSolveAgainstMultiply(t *testing.T) {
	for _, n := range []int{2, 3, 8, 33} {
		ab, bb, cb := BTStencil(0.04, 0.3)
		g := NewLCG(uint64(n))
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
				if math.Abs(sol[i][v]-x[i][v]) > 1e-8 {
					t.Fatalf("n=%d: mismatch at point %d var %d: %g vs %g",
						n, i, v, sol[i][v], x[i][v])
				}
			}
		}
	}
}

func TestPropertyBlockTriRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw, epsRaw uint8) bool {
		n := int(nRaw)%20 + 2
		eps := float64(epsRaw%10+1) / 100
		ab, bb, cb := BTStencil(eps, 0.25)
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
				if math.Abs(sol[i][v]-x[i][v]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBTMatchesSerialReference(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		m := machine.New(machine.KSR1(8))
		cfg := DefaultBTConfig(procs)
		res, err := RunBT(m, cfg)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		want, err := BTReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("procs=%d: checksum %g, reference %g", procs, res.Checksum, want)
		}
	}
}

func TestBTSpeedsUp(t *testing.T) {
	run := func(procs int) BTResult {
		m := machine.New(machine.KSR1(8))
		cfg := DefaultBTConfig(procs)
		cfg.Nx, cfg.Ny, cfg.Nz = 16, 16, 16
		res, err := RunBT(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t1, t8 := run(1).Elapsed, run(8).Elapsed
	if float64(t1)/float64(t8) < 5 {
		t.Errorf("BT speedup at 8 procs = %.2f, want > 5", float64(t1)/float64(t8))
	}
}

func TestBTRejectsBadConfig(t *testing.T) {
	m := machine.New(machine.KSR1(4))
	if _, err := RunBT(m, BTConfig{Nx: 2, Ny: 2, Nz: 2, Iterations: 1, Procs: 1}); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := RunBT(m, BTConfig{Nx: 8, Ny: 8, Nz: 2, Iterations: 1, Procs: 4}); err == nil {
		t.Error("grid smaller than proc count accepted")
	}
}
