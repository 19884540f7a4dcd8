package kernels

import (
	"fmt"
	"math"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/sim"
)

// CGConfig parameterizes the Conjugate Gradient kernel. The paper's run
// used n=14000 with 2.03 million nonzeros; the defaults are scaled down
// for tests and raised by the benchmark harness.
type CGConfig struct {
	N          int
	NNZ        int
	Iterations int // CG iterations per outer step (NAS uses 25)
	// OuterIterations runs the full NAS structure: repeated inverse power
	// iteration steps z = A^-1 x, x = z/||z||, refining the eigenvalue
	// estimate zeta. 0 or 1 means a single solve.
	OuterIterations int
	Procs           int
	Seed            uint64
	// UsePoststore propagates each processor's freshly written block of
	// the direction vector (and its partial dot products) as they are
	// produced — the optimization the paper measured at ~3% for 16
	// processors, fading at 32 as the ring nears saturation.
	UsePoststore bool
	// BypassSubCacheStream streams the matrix (values and column indices)
	// around the sub-cache — the experiment the paper wanted to run but
	// could not for lack of language-level support for the KSR-1's
	// selective sub-caching mechanism. The streamed matrix stops evicting
	// the x/p/q vectors from the sub-cache.
	BypassSubCacheStream bool
	// FlopsPerNZ is the simulated compute cost per nonzero in the matvec.
	FlopsPerNZ int64
}

// DefaultCGConfig returns a test-scale CG configuration.
func DefaultCGConfig(procs int) CGConfig {
	return CGConfig{
		N: 1400, NNZ: 20300, Iterations: 15, Procs: procs,
		// 30 cycles per nonzero (flops plus dependent-load stalls)
		// calibrates the single-processor rate to the ~1 MFLOPS the paper
		// observed for CG.
		Seed: 7, FlopsPerNZ: 30,
	}
}

// CGResult carries the solver outcome and timing.
type CGResult struct {
	Residual  float64 // final ||r||
	Zeta      float64 // eigenvalue-style figure: shift + 1/(x·z)
	Elapsed   sim.Time
	MFLOPS    float64
	RemoteRef uint64 // total remote references (hardware-monitor view)
}

// RunCG executes the parallel CG kernel on m: solve A z = x with
// contiguous row blocks per processor, exactly the row-start/column-index
// parallelization of Section 3.3.1. Reductions serialize on processor 0 —
// the serial section whose growing remote-reference count explains the
// paper's 16-to-32-processor speedup drop.
func RunCG(m *machine.Machine, cfg CGConfig) (CGResult, error) {
	if cfg.Procs < 1 || cfg.N < cfg.Procs || cfg.Iterations < 1 {
		return CGResult{}, fmt.Errorf("kernels: bad CG config %+v", cfg)
	}
	// RandomSPD places (NNZ-N)/(2N) mirrored off-diagonal pairs per row,
	// so a smaller matrix is the identity, on which CG converges in one
	// step and then divides 0/0.
	if cfg.N < 2 {
		return CGResult{}, fmt.Errorf("kernels: CG needs a matrix of order n >= 2, got %d", cfg.N)
	}
	if cfg.NNZ < 3*cfg.N {
		return CGResult{}, fmt.Errorf("kernels: CG at n=%d needs at least 3n = %d nonzeros, got %d",
			cfg.N, 3*cfg.N, cfg.NNZ)
	}
	a := RandomSPD(cfg.N, cfg.NNZ, cfg.Seed)
	n := cfg.N
	outer := cfg.OuterIterations
	if outer < 1 {
		outer = 1
	}

	// Real data.
	x := make([]float64, n) // right-hand side (all ones, NAS-style)
	z := make([]float64, n) // solution
	r := make([]float64, n)
	pv := make([]float64, n) // direction
	q := make([]float64, n)
	for i := range x {
		x[i] = 1
	}

	// Simulated layout mirroring the real arrays.
	valsR := m.Alloc("cg.vals", int64(a.NNZ())*8)
	colR := m.Alloc("cg.colidx", int64(a.NNZ())*4)
	zR := m.Alloc("cg.z", int64(n)*8)
	rR := m.Alloc("cg.r", int64(n)*8)
	pR := m.Alloc("cg.p", int64(n)*8)
	qR := m.Alloc("cg.q", int64(n)*8)
	partial := m.AllocPadded("cg.partials", int64(cfg.Procs))
	scalar := m.AllocPadded("cg.scalar", 3) // one broadcast slot per reduction site

	bar := ksync.NewSystem(m, cfg.Procs)

	// Row partition.
	lo := make([]int, cfg.Procs+1)
	for i := 0; i <= cfg.Procs; i++ {
		lo[i] = i * n / cfg.Procs
	}

	partials := make([]float64, cfg.Procs)
	// One broadcast value per reduction site: distinct sites never race
	// because consecutive uses of one site are separated by two barriers.
	var sums [3]float64
	var finalRho float64

	// reduce computes the sum of per-processor partial values on
	// processor 0 and publishes it; every processor then reads it back.
	// This is the algorithm's serial section.
	reduce := func(p *machine.Proc, id int, mine float64, site int) float64 {
		slot := scalar.PaddedSlot(int64(site))
		partials[id] = mine
		p.WriteRange(partial.PaddedSlot(int64(id)), 1, memory.WordSize)
		if cfg.UsePoststore {
			p.Poststore(partial.PaddedSlot(int64(id)))
		}
		bar.Wait(p)
		if id == 0 {
			var sum float64
			for qid := 0; qid < cfg.Procs; qid++ {
				p.ReadRange(partial.PaddedSlot(int64(qid)), 1, memory.WordSize)
				sum += partials[qid]
			}
			sums[site] = sum
			p.WriteRange(slot, 1, memory.WordSize)
			if cfg.UsePoststore {
				p.Poststore(slot)
			}
		}
		bar.Wait(p)
		p.ReadRange(slot, 1, memory.WordSize)
		return sums[site]
	}

	// blockTouch charges the sweep over this processor's slice of a
	// region (8-byte elements).
	blockTouch := func(p *machine.Proc, reg memory.Region, b, e int, write bool) {
		if e <= b {
			return
		}
		if write {
			p.WriteRange(reg.At(int64(b)*8), int64(e-b), 8)
		} else {
			p.ReadRange(reg.At(int64(b)*8), int64(e-b), 8)
		}
	}

	var res CGResult
	elapsed, err := m.Run(cfg.Procs, func(p *machine.Proc) {
		id := p.CellID()
		b, e := lo[id], lo[id+1]
		rows := e - b
		nnzB := int(a.RowStart[e] - a.RowStart[b])

		for step := 0; step < outer; step++ {
			// Initialize: r = x, p = r, z = 0 (own block).
			for i := b; i < e; i++ {
				r[i] = x[i]
				pv[i] = x[i]
				z[i] = 0
			}
			blockTouch(p, rR, b, e, true)
			blockTouch(p, pR, b, e, true)
			blockTouch(p, zR, b, e, true)
			mine := Dot(r[b:e], r[b:e])
			p.Compute(int64(2 * rows))
			// Scalars are per-processor locals: every processor derives
			// the same deterministic values from the reductions.
			rho := reduce(p, id, mine, 0)

			for it := 0; it < cfg.Iterations; it++ {
				// q = A p (own rows): stream matrix block, gather p globally.
				a.MulRows(q, pv, b, e)
				if cfg.BypassSubCacheStream {
					p.SetSubCacheBypass(true)
				}
				p.ReadRange(valsR.At(int64(a.RowStart[b])*8), int64(nnzB), 8)
				p.ReadRange(colR.At(int64(a.RowStart[b])*4), int64(nnzB), 4)
				if cfg.BypassSubCacheStream {
					p.SetSubCacheBypass(false)
				}
				// The gather touches essentially all of p (random columns).
				p.ReadRange(pR.Base, int64(n), 8)
				p.Compute(cfg.FlopsPerNZ * int64(nnzB))
				blockTouch(p, qR, b, e, true)

				// alpha = rho / (p·q).
				mine = Dot(pv[b:e], q[b:e])
				p.Compute(int64(2 * rows))
				pq := reduce(p, id, mine, 1)
				alpha := rho / pq

				// z += alpha p ; r -= alpha q (own block).
				for i := b; i < e; i++ {
					z[i] += alpha * pv[i]
					r[i] -= alpha * q[i]
				}
				p.Compute(int64(4 * rows))
				blockTouch(p, zR, b, e, true)
				blockTouch(p, rR, b, e, true)

				// rho' = r·r ; beta = rho'/rho ; p = r + beta p (own block).
				mine = Dot(r[b:e], r[b:e])
				p.Compute(int64(2 * rows))
				rhoNew := reduce(p, id, mine, 2)
				beta := rhoNew / rho
				rho = rhoNew
				for i := b; i < e; i++ {
					pv[i] = r[i] + beta*pv[i]
				}
				p.Compute(int64(2 * rows))
				blockTouch(p, pR, b, e, true)
				if cfg.UsePoststore {
					// Push the freshly written p block toward its consumers.
					for sp := int64(b) * 8 / memory.SubPageSize; sp <= int64(e-1)*8/memory.SubPageSize; sp++ {
						p.Poststore(pR.Base + memory.Addr(sp*memory.SubPageSize))
					}
				}
				bar.Wait(p)
			}
			if id == 0 {
				finalRho = rho
			}
			if step+1 < outer {
				// Inverse power iteration: normalize z into the next x
				// (own block; the norm is one more global reduction).
				mine = Dot(z[b:e], z[b:e])
				p.Compute(int64(2 * rows))
				zz := reduce(p, id, mine, 0)
				inv := 1 / math.Sqrt(zz)
				for i := b; i < e; i++ {
					x[i] = z[i] * inv
				}
				p.Compute(int64(2 * rows))
				bar.Wait(p)
			}
		}
	})
	if err != nil {
		return CGResult{}, err
	}

	res.Residual = math.Sqrt(finalRho)
	if zx := Dot(x, z); zx != 0 {
		res.Zeta = 20 + 1/zx
	}
	res.Elapsed = elapsed
	flops := float64(cfg.Iterations) * (2*float64(a.NNZ()) + 10*float64(n))
	if elapsed > 0 {
		res.MFLOPS = flops / (elapsed.Seconds() * 1e6)
	}
	res.RemoteRef = m.TotalMonitor().RemoteAccesses
	return res, nil
}
