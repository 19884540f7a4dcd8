package kernels

import (
	"sort"

	"repro/internal/sim"
)

// SparseMatrix is a symmetric positive definite sparse matrix in the
// row-start / column-index format the paper converts CG to (Figure 7):
// RowStart[i]..RowStart[i+1] index the nonzeros of row i in Vals/ColIdx.
// This layout lets a processor that owns a block of rows produce the
// corresponding block of y = A*x without any synchronization — the paper's
// key restructuring.
type SparseMatrix struct {
	N        int
	RowStart []int32
	ColIdx   []int32
	Vals     []float64
}

// NNZ returns the number of stored nonzeros.
func (a *SparseMatrix) NNZ() int { return len(a.Vals) }

// RandomSPD generates a random symmetric strictly diagonally dominant
// (hence positive definite) matrix with about nnzTarget nonzeros. The
// generator is seeded, so runs are reproducible.
func RandomSPD(n int, nnzTarget int, seed uint64) *SparseMatrix {
	rng := sim.NewRNG(seed)
	offPerRow := (nnzTarget - n) / (2 * n) // mirrored pairs
	if offPerRow < 0 {
		offPerRow = 0
	}
	cols := make([]map[int32]float64, n)
	for i := range cols {
		cols[i] = make(map[int32]float64, 2*offPerRow+1)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < offPerRow; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.Float64()*2 - 1
			cols[i][int32(j)] = v
			cols[j][int32(i)] = v
		}
	}
	a := &SparseMatrix{N: n}
	a.RowStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		keys := make([]int32, 0, len(cols[i])+1)
		for j := range cols[i] {
			keys = append(keys, j)
		}
		sort.Slice(keys, func(x, y int) bool { return keys[x] < keys[y] })
		// Diagonal dominance: d = sum|offdiag| + 1, accumulated in sorted
		// column order — summing in map-iteration order would make the
		// diagonal differ by ULPs from run to run, breaking bit-exact
		// reproducibility of every result downstream of the matrix.
		d := 1.0
		for _, j := range keys {
			if v := cols[i][j]; v < 0 {
				d -= v
			} else {
				d += v
			}
		}
		cols[i][int32(i)] = d
		keys = append(keys, int32(i))
		sort.Slice(keys, func(x, y int) bool { return keys[x] < keys[y] })
		for _, j := range keys {
			a.ColIdx = append(a.ColIdx, j)
			a.Vals = append(a.Vals, cols[i][j])
		}
		a.RowStart[i+1] = int32(len(a.Vals))
	}
	return a
}

// MulRows computes y[lo:hi] = (A*x)[lo:hi].
func (a *SparseMatrix) MulRows(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := a.RowStart[i]; k < a.RowStart[i+1]; k++ {
			s += a.Vals[k] * x[a.ColIdx[k]]
		}
		y[i] = s
	}
}

// Mul computes y = A*x.
func (a *SparseMatrix) Mul(y, x []float64) { a.MulRows(y, x, 0, a.N) }

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
