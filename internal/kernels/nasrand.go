// Package kernels implements the NAS Parallel Benchmark programs the paper
// measures — the Embarrassingly Parallel (EP), Conjugate Gradient (CG) and
// Integer Sort (IS) kernels and the Scalar Pentadiagonal (SP) application —
// as real computations instrumented with simulated memory accesses, so
// each run produces both a verifiable numerical answer and a faithful
// timing on the modelled machine.
package kernels

import "math"

// LCG is the NAS benchmark linear congruential generator:
//
//	x_{k+1} = a * x_k  (mod 2^46),  a = 5^13
//
// yielding uniform doubles in (0, 1) as x_k / 2^46. It supports O(log n)
// jump-ahead, which is what lets EP's processors generate disjoint chunks
// of one global stream independently (no communication — the "parallel"
// in Embarrassingly Parallel).
type LCG struct {
	x uint64
}

const (
	lcgMod  = uint64(1) << 46
	lcgMask = lcgMod - 1
	// LCGMultiplier is the NAS-standard a = 5^13.
	LCGMultiplier = uint64(1220703125)
	// DefaultNASSeed is the seed the NAS benchmarks specify.
	DefaultNASSeed = uint64(271828183)
)

// NewLCG returns a generator at seed position.
func NewLCG(seed uint64) *LCG { return &LCG{x: seed & lcgMask} }

// Next returns the next uniform double in (0, 1).
func (g *LCG) Next() float64 {
	g.x = (LCGMultiplier * g.x) & lcgMask
	return float64(g.x) / float64(lcgMod)
}

// lcgPow returns a^n mod 2^46 by binary exponentiation.
func lcgPow(a uint64, n uint64) uint64 {
	r := uint64(1)
	a &= lcgMask
	for n > 0 {
		if n&1 == 1 {
			r = (r * a) & lcgMask
		}
		a = (a * a) & lcgMask
		n >>= 1
	}
	return r
}

// Jump advances the generator by n steps in O(log n).
func (g *LCG) Jump(n uint64) {
	g.x = (lcgPow(LCGMultiplier, n) * g.x) & lcgMask
}

// JumpedLCG returns a fresh generator positioned n steps after seed.
func JumpedLCG(seed, n uint64) *LCG {
	g := NewLCG(seed)
	g.Jump(n)
	return g
}

// GaussianPair applies the Marsaglia polar method to one uniform pair
// scaled to (-1, 1): if accepted, it returns the two independent Gaussian
// deviates and ok=true.
func GaussianPair(u1, u2 float64) (gx, gy float64, ok bool) {
	x := 2*u1 - 1
	y := 2*u2 - 1
	t := x*x + y*y
	if t > 1 || t == 0 {
		return 0, 0, false
	}
	f := math.Sqrt(-2 * math.Log(t) / t)
	return x * f, y * f, true
}
