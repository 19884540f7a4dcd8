package kernels

import (
	"fmt"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/sim"
)

// The paper's Figures 6 and 7 motivate rewriting CG's sparse matrix from
// the sequential code's column-start/row-index format to
// row-start/column-index: with columns distributed across processors,
// "multiple processors could write into the same element of y,
// necessitating synchronization for every access of y". This file
// implements that rejected design so the cost of the synchronization can
// be measured — the quantitative version of the paper's qualitative
// argument.

// ColumnSparse is the sequential NAS code's column-start / row-index
// format: ColStart[j]..ColStart[j+1] index the nonzeros of column j.
type ColumnSparse struct {
	N        int
	ColStart []int32
	RowIdx   []int32
	Vals     []float64
}

// ToColumnFormat transposes a row-format SPD matrix into column format
// (for a symmetric matrix the two hold the same values in a different
// order, as the paper's example shows).
func (a *SparseMatrix) ToColumnFormat() *ColumnSparse {
	c := &ColumnSparse{N: a.N}
	counts := make([]int32, a.N+1)
	for _, j := range a.ColIdx {
		counts[j+1]++
	}
	for j := 0; j < a.N; j++ {
		counts[j+1] += counts[j]
	}
	c.ColStart = counts
	next := make([]int32, a.N)
	copy(next, counts[:a.N])
	c.RowIdx = make([]int32, a.NNZ())
	c.Vals = make([]float64, a.NNZ())
	for i := 0; i < a.N; i++ {
		for k := a.RowStart[i]; k < a.RowStart[i+1]; k++ {
			j := a.ColIdx[k]
			pos := next[j]
			next[j]++
			c.RowIdx[pos] = int32(i)
			c.Vals[pos] = a.Vals[k]
		}
	}
	return c
}

// MatvecCompareResult reports the two parallelizations of one y = A*x.
type MatvecCompareResult struct {
	RowFormat    sim.Time // row blocks, no synchronization
	ColumnFormat sim.Time // column blocks, locked y accumulation
	Correct      bool     // both produced the same vector
}

// String renders the comparison.
func (r MatvecCompareResult) String() string {
	ratio := 0.0
	if r.RowFormat > 0 {
		ratio = float64(r.ColumnFormat) / float64(r.RowFormat)
	}
	return fmt.Sprintf(
		"sparse matvec, row format: %v; column format with locked y: %v (x%.1f); correct=%v\n",
		r.RowFormat, r.ColumnFormat, ratio, r.Correct)
}

// RunMatvecComparison executes one parallel y = A*x both ways on fresh
// machines and verifies they agree. The column version assigns column
// blocks per processor and serializes updates to y through per-segment
// hardware locks, exactly the synchronization the paper's restructuring
// avoids.
//
//lint:ignore ksrlint/deadapi the column-format CG ablation (DESIGN.md X4) runs it from go test -bench=Ablation
func RunMatvecComparison(n, nnz, procs int, seed uint64) (MatvecCompareResult, error) {
	var res MatvecCompareResult
	if procs < 1 || n < procs {
		return res, fmt.Errorf("kernels: bad matvec comparison config n=%d procs=%d", n, procs)
	}
	a := RandomSPD(n, nnz, seed)
	col := a.ToColumnFormat()
	x := make([]float64, n)
	g := NewLCG(seed | 1)
	for i := range x {
		x[i] = g.Next()*2 - 1
	}
	want := make([]float64, n)
	a.Mul(want, x)

	// --- Row format: each processor owns rows, writes its own y block.
	{
		m := machine.New(machine.KSR1(32))
		valsR := m.Alloc("vals", int64(a.NNZ())*8)
		yR := m.Alloc("y", int64(n)*8)
		xR := m.Alloc("x", int64(n)*8)
		y := make([]float64, n)
		el, err := m.Run(procs, func(p *machine.Proc) {
			id := p.CellID()
			b, e := id*n/procs, (id+1)*n/procs
			nnzB := int64(a.RowStart[e] - a.RowStart[b])
			a.MulRows(y, x, b, e)
			p.ReadRange(valsR.At(int64(a.RowStart[b])*8), nnzB, 8)
			p.ReadRange(xR.Base, int64(n), 8)
			p.Compute(2 * nnzB)
			p.WriteRange(yR.At(int64(b)*8), int64(e-b), 8)
		})
		if err != nil {
			return res, err
		}
		res.RowFormat = el
		res.Correct = vectorsClose(y, want)
	}

	// --- Column format: each processor owns columns; every contribution
	// to y goes through a lock on the segment holding that element.
	{
		m := machine.New(machine.KSR1(32))
		valsR := m.Alloc("vals", int64(len(col.Vals))*8)
		yR := m.Alloc("y", int64(n)*8)
		xR := m.Alloc("x", int64(n)*8)
		const segWords = 16 // one sub-page of y per lock
		nSegs := (n + segWords - 1) / segWords
		locks := make([]*ksync.HWLock, nSegs)
		for i := range locks {
			locks[i] = ksync.NewHWLock(m)
		}
		y := make([]float64, n)
		el, err := m.Run(procs, func(p *machine.Proc) {
			id := p.CellID()
			jb, je := id*n/procs, (id+1)*n/procs
			p.ReadRange(xR.At(int64(jb)*8), int64(je-jb), 8)
			for j := jb; j < je; j++ {
				xj := x[j]
				for k := col.ColStart[j]; k < col.ColStart[j+1]; k++ {
					i := col.RowIdx[k]
					p.ReadRange(valsR.At(int64(k)*8), 1, 8)
					// The piece-meal accumulation the paper describes:
					// lock the segment of y, read-modify-write, unlock.
					seg := int(i) / segWords
					locks[seg].Acquire(p)
					y[i] += col.Vals[k] * xj
					p.Read(yR.At(int64(i) * 8))
					p.Write(yR.At(int64(i) * 8))
					p.Compute(2)
					locks[seg].Release(p)
				}
			}
		})
		if err != nil {
			return res, err
		}
		res.ColumnFormat = el
		res.Correct = res.Correct && vectorsClose(y, want)
	}
	return res, nil
}

// vectorsClose compares with a small relative tolerance (column order
// reassociates the floating-point sums).
func vectorsClose(a, b []float64) bool {
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		mag := b[i]
		if mag < 0 {
			mag = -mag
		}
		if d > 1e-9*(1+mag) {
			return false
		}
	}
	return true
}
