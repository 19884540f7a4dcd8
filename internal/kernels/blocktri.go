package kernels

import "fmt"

// The paper's reference [6] — "Implementation of EP, SP and BT on the
// KSR-1" — covers a third NAS code beyond the two the paper tabulates:
// BT, the Block Tridiagonal application. Like SP it is an ADI iteration
// with sweeps along each grid dimension, but each line solve is a block
// tridiagonal system with 5x5 blocks (the five coupled flow variables)
// instead of a scalar pentadiagonal one. This file implements the dense
// 5x5 linear algebra and the block tridiagonal solver; bt.go builds the
// parallel application on top.

// BlockDim is the NAS BT block size: five flow variables per grid point.
const BlockDim = 5

// Mat5 is a dense 5x5 matrix in row-major order.
type Mat5 [BlockDim * BlockDim]float64

// Vec5 is a 5-vector.
type Vec5 [BlockDim]float64

// Identity5 returns the 5x5 identity.
func Identity5() Mat5 {
	var m Mat5
	for i := 0; i < BlockDim; i++ {
		m[i*BlockDim+i] = 1
	}
	return m
}

// MulMat returns a*b.
func (a Mat5) MulMat(b Mat5) Mat5 {
	var c Mat5
	for i := 0; i < BlockDim; i++ {
		for k := 0; k < BlockDim; k++ {
			aik := a[i*BlockDim+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < BlockDim; j++ {
				c[i*BlockDim+j] += aik * b[k*BlockDim+j]
			}
		}
	}
	return c
}

// MulVec returns a*v.
func (a Mat5) MulVec(v Vec5) Vec5 {
	var out Vec5
	for i := 0; i < BlockDim; i++ {
		s := 0.0
		for j := 0; j < BlockDim; j++ {
			s += a[i*BlockDim+j] * v[j]
		}
		out[i] = s
	}
	return out
}

// Sub returns a-b.
func (a Mat5) Sub(b Mat5) Mat5 {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// SubVec returns v-w.
func (v Vec5) SubVec(w Vec5) Vec5 {
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Scale returns s*a.
func (a Mat5) Scale(s float64) Mat5 {
	for i := range a {
		a[i] *= s
	}
	return a
}

// Invert returns a^-1 using Gauss-Jordan elimination with partial
// pivoting. It panics on a singular block (the BT systems are diagonally
// dominant by construction, so this indicates a bug, not data).
func (a Mat5) Invert() Mat5 {
	m := a
	inv := Identity5()
	for col := 0; col < BlockDim; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < BlockDim; r++ {
			if abs(m[r*BlockDim+col]) > abs(m[p*BlockDim+col]) {
				p = r
			}
		}
		if m[p*BlockDim+col] == 0 {
			panic(fmt.Sprintf("kernels: singular 5x5 block at column %d", col))
		}
		if p != col {
			for j := 0; j < BlockDim; j++ {
				m[p*BlockDim+j], m[col*BlockDim+j] = m[col*BlockDim+j], m[p*BlockDim+j]
				inv[p*BlockDim+j], inv[col*BlockDim+j] = inv[col*BlockDim+j], inv[p*BlockDim+j]
			}
		}
		// Normalize the pivot row.
		d := 1 / m[col*BlockDim+col]
		for j := 0; j < BlockDim; j++ {
			m[col*BlockDim+j] *= d
			inv[col*BlockDim+j] *= d
		}
		// Eliminate the column elsewhere.
		for r := 0; r < BlockDim; r++ {
			if r == col {
				continue
			}
			f := m[r*BlockDim+col]
			if f == 0 {
				continue
			}
			for j := 0; j < BlockDim; j++ {
				m[r*BlockDim+j] -= f * m[col*BlockDim+j]
				inv[r*BlockDim+j] -= f * inv[col*BlockDim+j]
			}
		}
	}
	return inv
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BlockTriSolver solves block tridiagonal systems
//
//	A_i x_{i-1} + B_i x_i + C_i x_{i+1} = r_i,  i = 0..n-1
//
// (A_0 and C_{n-1} ignored) by block Thomas elimination. Workspaces are
// reused across calls.
type BlockTriSolver struct {
	n  int
	cs []Mat5 // modified C coefficients
	rs []Vec5 // modified right-hand sides
}

// NewBlockTriSolver sizes the solver for lines of length n.
func NewBlockTriSolver(n int) *BlockTriSolver {
	return &BlockTriSolver{n: n, cs: make([]Mat5, n), rs: make([]Vec5, n)}
}

// Solve overwrites x with the solution. a, b, c, r must have length n.
func (s *BlockTriSolver) Solve(a, b, c []Mat5, r []Vec5, x []Vec5) {
	n := s.n
	if len(a) != n || len(b) != n || len(c) != n || len(r) != n || len(x) != n {
		panic("kernels: BlockTriSolver.Solve with wrong-length inputs")
	}
	// Forward elimination.
	binv := b[0].Invert()
	s.cs[0] = binv.MulMat(c[0])
	s.rs[0] = binv.MulVec(r[0])
	for i := 1; i < n; i++ {
		denom := b[i].Sub(a[i].MulMat(s.cs[i-1]))
		dinv := denom.Invert()
		s.cs[i] = dinv.MulMat(c[i])
		s.rs[i] = dinv.MulVec(r[i].SubVec(a[i].MulVec(s.rs[i-1])))
	}
	// Back substitution.
	x[n-1] = s.rs[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = s.rs[i].SubVec(s.cs[i].MulVec(x[i+1]))
	}
}

// BTStencil fills constant coefficient blocks for the BT model problem:
// a diagonally dominant implicit smoothing of the five coupled variables,
//
//	A = -eps*(I + K),  B = I + 2*eps*(I + K),  C = -eps*(I + K)
//
// where K couples neighbouring variables (K[i][j] = kappa for |i-j| = 1).
// Diagonal dominance holds for eps, kappa in the model range.
func BTStencil(eps, kappa float64) (a, b, c Mat5) {
	coupling := Identity5()
	for i := 0; i < BlockDim-1; i++ {
		coupling[i*BlockDim+i+1] = kappa
		coupling[(i+1)*BlockDim+i] = kappa
	}
	a = coupling.Scale(-eps)
	c = a
	b = Identity5().Sub(coupling.Scale(-2 * eps)) // I + 2*eps*coupling
	return a, b, c
}
