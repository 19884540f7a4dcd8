package kernels

import (
	"fmt"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/sim"
)

// BTConfig parameterizes the Block Tridiagonal application — the third
// code of the paper's reference [6]. Structure mirrors SP (ADI sweeps
// along x, y, z with communication at phase starts), but each grid point
// carries the five coupled variables and each line solve is a block
// tridiagonal system with 5x5 blocks, making the per-point computation an
// order of magnitude heavier than SP's scalar solves.
type BTConfig struct {
	Nx, Ny, Nz int
	Iterations int
	Procs      int
	Eps        float64
	Kappa      float64 // inter-variable coupling strength
	// FlopsPerPoint models BT's dense 5x5 block work per point per sweep.
	FlopsPerPoint int64
}

// DefaultBTConfig returns a test-scale BT configuration.
func DefaultBTConfig(procs int) BTConfig {
	return BTConfig{
		Nx: 12, Ny: 12, Nz: 12, Iterations: 1, Procs: procs,
		Eps: 0.04, Kappa: 0.3, FlopsPerPoint: 400,
	}
}

// BTResult carries the outcome and timing.
type BTResult struct {
	Elapsed      sim.Time
	PerIteration sim.Time
	Checksum     float64
	RemoteRef    uint64
}

// pointWords is the simulated footprint of one grid point (five
// variables).
const pointWords = int64(BlockDim)

// RunBT executes BT on m: x and y sweeps over z-slabs, z sweep over
// y-slabs, each line solved as a 5x5 block tridiagonal system.
func RunBT(m *machine.Machine, cfg BTConfig) (BTResult, error) {
	if err := cfg.check(); err != nil {
		return BTResult{}, err
	}
	nx, ny, nz := cfg.Nx, cfg.Ny, cfg.Nz

	u := btInitField(cfg)
	idx := func(i, j, k int) int { return i + nx*(j+ny*k) }

	field := m.Alloc("bt.u", int64(nx*ny*nz)*pointWords*memory.WordSize)
	addrOf := func(i, j, k int) memory.Addr {
		return field.At(int64(idx(i, j, k)) * pointWords * memory.WordSize)
	}

	bar := ksync.NewSystem(m, cfg.Procs)
	zLo := func(p int) int { return p * nz / cfg.Procs }
	yLo := func(p int) int { return p * ny / cfg.Procs }
	ab, bb, cb := BTStencil(cfg.Eps, cfg.Kappa)

	var res BTResult
	elapsed, err := m.Run(cfg.Procs, func(p *machine.Proc) {
		id := p.CellID()
		zb, ze := zLo(id), zLo(id+1)
		jb, je := yLo(id), yLo(id+1)
		maxN := nx
		if ny > maxN {
			maxN = ny
		}
		if nz > maxN {
			maxN = nz
		}
		solver := NewBlockTriSolver(maxN)
		as := make([]Mat5, maxN)
		bs := make([]Mat5, maxN)
		cs := make([]Mat5, maxN)
		rhs := make([]Vec5, maxN)
		sol := make([]Vec5, maxN)

		// solveLine gathers n points at the given index function, solves,
		// scatters back, and charges the simulated accesses and flops.
		solveLine := func(n int, at func(t int) int, addr func(t int) memory.Addr) {
			for t := 0; t < n; t++ {
				p.ReadRange(addr(t), pointWords, memory.WordSize)
				rhs[t] = u[at(t)]
				as[t], bs[t], cs[t] = ab, bb, cb
			}
			// End truncation: no neighbours outside the line.
			as[0] = Mat5{}
			cs[n-1] = Mat5{}
			solver.Solve(as[:n], bs[:n], cs[:n], rhs[:n], sol[:n])
			for t := 0; t < n; t++ {
				u[at(t)] = sol[t]
				p.WriteRange(addr(t), pointWords, memory.WordSize)
			}
			p.Compute(cfg.FlopsPerPoint * int64(n))
		}

		for it := 0; it < cfg.Iterations; it++ {
			// Phase 1: x sweep over my z-slab.
			for k := zb; k < ze; k++ {
				for j := 0; j < ny; j++ {
					j, k := j, k
					solveLine(nx,
						func(t int) int { return idx(t, j, k) },
						func(t int) memory.Addr { return addrOf(t, j, k) })
				}
			}
			bar.Wait(p)
			// Phase 2: y sweep over my z-slab.
			for k := zb; k < ze; k++ {
				for i := 0; i < nx; i++ {
					i, k := i, k
					solveLine(ny,
						func(t int) int { return idx(i, t, k) },
						func(t int) memory.Addr { return addrOf(i, t, k) })
				}
			}
			bar.Wait(p)
			// Phase 3: z sweep over my y-slab (repartition).
			for j := jb; j < je; j++ {
				for i := 0; i < nx; i++ {
					i, j := i, j
					solveLine(nz,
						func(t int) int { return idx(i, j, t) },
						func(t int) memory.Addr { return addrOf(i, j, t) })
				}
			}
			bar.Wait(p)
		}
	})
	if err != nil {
		return BTResult{}, err
	}
	for _, v := range u {
		for _, x := range v {
			res.Checksum += x
		}
	}
	res.Elapsed = elapsed
	res.PerIteration = elapsed / sim.Time(cfg.Iterations)
	res.RemoteRef = m.TotalMonitor().RemoteAccesses
	return res, nil
}

// btInitField builds the deterministic initial five-variable field.
func btInitField(cfg BTConfig) []Vec5 {
	nx, ny, nz := cfg.Nx, cfg.Ny, cfg.Nz
	u := make([]Vec5, nx*ny*nz)
	n := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				for v := 0; v < BlockDim; v++ {
					u[n][v] = float64((i*13+j*7+k*3+v*29)%101) / 101.0
				}
				n++
			}
		}
	}
	return u
}

// check rejects a grid, processor count or iteration count the block
// solver cannot run. RunBT and BTReference both call it first.
func (cfg BTConfig) check() error {
	if cfg.Procs < 1 || cfg.Nx < 4 || cfg.Ny < 4 || cfg.Nz < 4 || cfg.Iterations < 1 {
		return fmt.Errorf("kernels: bad BT config %+v", cfg)
	}
	if cfg.Nz < cfg.Procs || cfg.Ny < cfg.Procs {
		return fmt.Errorf("kernels: grid %dx%dx%d too small for %d procs",
			cfg.Nx, cfg.Ny, cfg.Nz, cfg.Procs)
	}
	return nil
}

// BTReference runs the same iteration serially in plain Go for
// verification: the parallel checksum must match exactly.
func BTReference(cfg BTConfig) (float64, error) {
	if err := cfg.check(); err != nil {
		return 0, err
	}
	nx, ny, nz := cfg.Nx, cfg.Ny, cfg.Nz
	u := btInitField(cfg)
	idx := func(i, j, k int) int { return i + nx*(j+ny*k) }
	ab, bb, cb := BTStencil(cfg.Eps, cfg.Kappa)
	maxN := nx
	if ny > maxN {
		maxN = ny
	}
	if nz > maxN {
		maxN = nz
	}
	solver := NewBlockTriSolver(maxN)
	as := make([]Mat5, maxN)
	bs := make([]Mat5, maxN)
	cs := make([]Mat5, maxN)
	rhs := make([]Vec5, maxN)
	sol := make([]Vec5, maxN)
	solveLine := func(n int, at func(t int) int) {
		for t := 0; t < n; t++ {
			rhs[t] = u[at(t)]
			as[t], bs[t], cs[t] = ab, bb, cb
		}
		as[0] = Mat5{}
		cs[n-1] = Mat5{}
		solver.Solve(as[:n], bs[:n], cs[:n], rhs[:n], sol[:n])
		for t := 0; t < n; t++ {
			u[at(t)] = sol[t]
		}
	}
	for it := 0; it < cfg.Iterations; it++ {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				j, k := j, k
				solveLine(nx, func(t int) int { return idx(t, j, k) })
			}
		}
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				i, k := i, k
				solveLine(ny, func(t int) int { return idx(i, t, k) })
			}
		}
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				i, j := i, j
				solveLine(nz, func(t int) int { return idx(i, j, t) })
			}
		}
	}
	sum := 0.0
	for _, v := range u {
		for _, x := range v {
			sum += x
		}
	}
	return sum, nil
}
