package kernels

// Test oracles: direct reference computations the kernel tests check
// the solvers and the sparse-matrix generator against.

// BlockTriMul computes r_i = A x_{i-1} + B x_i + C x_{i+1} for
// verification (ends truncated).
func BlockTriMul(a, b, c Mat5, x []Vec5) []Vec5 {
	n := len(x)
	r := make([]Vec5, n)
	for i := 0; i < n; i++ {
		ri := b.MulVec(x[i])
		if i > 0 {
			ri2 := a.MulVec(x[i-1])
			for k := range ri {
				ri[k] += ri2[k]
			}
		}
		if i < n-1 {
			ri2 := c.MulVec(x[i+1])
			for k := range ri {
				ri[k] += ri2[k]
			}
		}
		r[i] = ri
	}
	return r
}

// PentaMulAdd computes y = (I + eps*D4) x for verification, with the same
// end-row truncation SetConstant applies.
func PentaMulAdd(x []float64, eps float64) []float64 {
	n := len(x)
	a, b, c, d, e := SPStencil(eps)
	y := make([]float64, n)
	get := func(i int) float64 {
		if i < 0 || i >= n {
			return 0
		}
		return x[i]
	}
	for i := 0; i < n; i++ {
		y[i] = c * x[i]
		if i >= 1 {
			y[i] += b * get(i-1)
		}
		if i >= 2 {
			y[i] += a * get(i-2)
		}
		if i < n-1 {
			y[i] += d * get(i+1)
		}
		if i < n-2 {
			y[i] += e * get(i+2)
		}
	}
	return y
}

// IsSymmetric verifies A = A^T (test support).
func (a *SparseMatrix) IsSymmetric() bool {
	type key struct{ i, j int32 }
	m := make(map[key]float64, a.NNZ())
	for i := 0; i < a.N; i++ {
		for k := a.RowStart[i]; k < a.RowStart[i+1]; k++ {
			m[key{int32(i), a.ColIdx[k]}] = a.Vals[k]
		}
	}
	for k, v := range m {
		if m[key{k.j, k.i}] != v {
			return false
		}
	}
	return true
}
