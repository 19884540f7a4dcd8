package kernels

// PentaSolver solves pentadiagonal linear systems — the inner computation
// of the Scalar Pentadiagonal (SP) application, which performs one
// pentadiagonal solve per grid line per sweep direction.
//
// The system for a line of length n has bands (a, b, c, d, e) at offsets
// (-2, -1, 0, +1, +2). Solve performs the standard forward elimination and
// back substitution; coefficients are destroyed, rhs is replaced by the
// solution, matching how the NAS SP code works in place.
type PentaSolver struct {
	n             int
	a, b, c, d, e []float64
}

// NewPentaSolver allocates working bands for lines of length n.
func NewPentaSolver(n int) *PentaSolver {
	return &PentaSolver{
		n: n,
		a: make([]float64, n),
		b: make([]float64, n),
		c: make([]float64, n),
		d: make([]float64, n),
		e: make([]float64, n),
	}
}

// SetConstant fills the bands with the constant stencil (a, b, c, d, e),
// zeroing the out-of-range band entries at the line ends. The SP model
// problem uses the diagonally dominant smoothing stencil produced by
// SPStencil.
func (s *PentaSolver) SetConstant(a, b, c, d, e float64) {
	for i := 0; i < s.n; i++ {
		s.a[i], s.b[i], s.c[i], s.d[i], s.e[i] = a, b, c, d, e
	}
	s.a[0], s.b[0] = 0, 0
	if s.n > 1 {
		s.a[1] = 0
		s.d[s.n-1] = 0
	}
	if s.n > 1 {
		s.e[s.n-1] = 0
	}
	if s.n > 2 {
		s.e[s.n-2] = 0
	}
}

// Solve solves the pentadiagonal system in place: on return x holds the
// solution. x must have length n. The bands are consumed (call SetConstant
// again before reuse).
func (s *PentaSolver) Solve(x []float64) {
	n := s.n
	if len(x) != n {
		panic("kernels: PentaSolver.Solve with wrong-length rhs")
	}
	a, b, c, d, e := s.a, s.b, s.c, s.d, s.e
	// Forward elimination of the two sub-diagonals.
	for i := 0; i < n-1; i++ {
		// Eliminate b[i+1] using row i.
		m1 := b[i+1] / c[i]
		c[i+1] -= m1 * d[i]
		d[i+1] -= m1 * e[i]
		x[i+1] -= m1 * x[i]
		if i+2 < n {
			// Eliminate a[i+2] using row i.
			m2 := a[i+2] / c[i]
			b[i+2] -= m2 * d[i]
			c[i+2] -= m2 * e[i]
			x[i+2] -= m2 * x[i]
		}
	}
	// Back substitution.
	x[n-1] /= c[n-1]
	if n > 1 {
		x[n-2] = (x[n-2] - d[n-2]*x[n-1]) / c[n-2]
	}
	for i := n - 3; i >= 0; i-- {
		x[i] = (x[i] - d[i]*x[i+1] - e[i]*x[i+2]) / c[i]
	}
}

// SPStencil returns the diagonally dominant implicit-smoothing stencil
// (I + eps*D4) used by the SP model problem, where D4 is the 1-D fourth
// difference (1, -4, 6, -4, 1).
func SPStencil(eps float64) (a, b, c, d, e float64) {
	return eps, -4 * eps, 1 + 6*eps, -4 * eps, eps
}
