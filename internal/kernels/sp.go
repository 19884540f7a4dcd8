package kernels

import (
	"fmt"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/sim"
)

// spTrace enables per-phase timing printout (debug aid).
var spTrace = false

// SPConfig parameterizes the Scalar Pentadiagonal application: an
// ADI-style iteration that sweeps implicit pentadiagonal solves along x,
// then y, then z over a 3-D grid, with inter-processor communication at
// the start of each phase — the structure of the NAS SP code the paper
// ran at 64x64x64.
type SPConfig struct {
	Nx, Ny, Nz int
	Iterations int
	Procs      int
	Eps        float64 // smoothing strength of the (I + eps*D4) operator

	// The Table 4 optimization ladder:
	Padding  bool // pad each z-plane to break sub-cache set conflicts
	Prefetch bool // prefetch each phase's slab before computing
	// Poststore pushes each written line to the other processors — the
	// paper found this SLOWS SP DOWN because the next phase's owner must
	// re-acquire exclusive ownership of data the poststore left shared.
	Poststore bool

	// FlopsPerPoint is the simulated compute per grid point per sweep.
	// The real SP spends several hundred cycles per point (five coupled
	// variables, lhs setup, forward/backward sweeps); 80 keeps the code
	// compute-bound — the regime in which the paper's prefetch gain
	// appears — while leaving the sub-cache thrashing visible.
	FlopsPerPoint int64
}

// DefaultSPConfig returns a test-scale SP configuration.
func DefaultSPConfig(procs int) SPConfig {
	return SPConfig{
		Nx: 16, Ny: 16, Nz: 16, Iterations: 2, Procs: procs,
		Eps: 0.05, FlopsPerPoint: 80,
	}
}

// SPResult carries convergence data and timing.
type SPResult struct {
	Elapsed      sim.Time
	PerIteration sim.Time
	Checksum     float64 // sum of the field after the final iteration
	SubAllocs    uint64  // sub-cache block allocations (thrashing witness)
	RemoteRef    uint64
}

// RunSP executes the SP application on m. The x and y sweeps partition the
// grid by z-slabs; the z sweep partitions by y-slabs, so the slab
// redistribution between phases produces the phase-boundary communication
// the paper describes.
func RunSP(m *machine.Machine, cfg SPConfig) (SPResult, error) {
	if err := cfg.check(); err != nil {
		return SPResult{}, err
	}
	nx, ny, nz := cfg.Nx, cfg.Ny, cfg.Nz

	// Real field, initialized to a deterministic bumpy function.
	u := make([]float64, nx*ny*nz)
	idx := func(i, j, k int) int { return i + nx*(j+ny*k) }
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				u[idx(i, j, k)] = float64((i*31+j*17+k*7)%97) / 97.0
			}
		}
	}

	// Simulated layout. Padding adds one sub-cache block (2 KB) per
	// z-plane so that large-stride z-sweeps stop aliasing into a handful
	// of sub-cache sets — the paper's "data padding and alignment" fix.
	planeWords := int64(nx * ny)
	if cfg.Padding {
		planeWords += memory.BlockSize / memory.WordSize
	}
	field := m.Alloc("sp.u", planeWords*int64(nz)*memory.WordSize)
	addrOf := func(i, j, k int) memory.Addr {
		return field.At((int64(k)*planeWords + int64(j*nx+i)) * memory.WordSize)
	}

	bar := ksync.NewSystem(m, cfg.Procs)
	zLo := func(p int) int { return p * nz / cfg.Procs }
	yLo := func(p int) int { return p * ny / cfg.Procs }

	var res SPResult
	elapsed, err := m.Run(cfg.Procs, func(p *machine.Proc) {
		id := p.CellID()
		zb, ze := zLo(id), zLo(id+1)
		jb, je := yLo(id), yLo(id+1)
		sx := NewPentaSolver(nx)
		sy := NewPentaSolver(ny)
		sz := NewPentaSolver(nz)
		bufX := make([]float64, nx)
		bufY := make([]float64, ny)
		bufZ := make([]float64, nz)

		poststoreLine := func(base memory.Addr, count, stride int64) {
			if !cfg.Poststore {
				return
			}
			seen := memory.SubPageID(1<<63 - 1)
			for i := int64(0); i < count; i++ {
				sp := (base + memory.Addr(i*stride)).SubPage()
				if sp != seen {
					p.Poststore(sp.Base())
					seen = sp
				}
			}
		}

		for it := 0; it < cfg.Iterations; it++ {
			phaseT0 := p.Now()
			tracePhase := func(name string) {
				if spTrace && id == 0 {
					fmt.Printf("  it%d %s: %v\n", it, name, p.Now()-phaseT0)
					phaseT0 = p.Now()
				}
			}
			// --- Phase 1: x sweep over my z-slab. With prefetching on,
			// each line is fetched two lines ahead of its solve (the
			// software pipelining the paper's authors applied): a bounded
			// window of transactions overlaps the ring with computation
			// without flooding the slot queue.
			prefetchLine := func(j, k int) {
				if j >= ny {
					j -= ny
					k++
				}
				if k < ze {
					p.PrefetchRange(addrOf(0, j, k), int64(nx)*memory.WordSize)
				}
			}
			for k := zb; k < ze; k++ {
				if cfg.Prefetch && k == zb {
					prefetchLine(0, k)
					prefetchLine(1, k)
				}
				for j := 0; j < ny; j++ {
					if cfg.Prefetch {
						prefetchLine(j+2, k)
					}
					base := addrOf(0, j, k)
					p.ReadRange(base, int64(nx), memory.WordSize)
					for i := 0; i < nx; i++ {
						bufX[i] = u[idx(i, j, k)]
					}
					sx.SetConstant(SPStencil(cfg.Eps))
					sx.Solve(bufX)
					for i := 0; i < nx; i++ {
						u[idx(i, j, k)] = bufX[i]
					}
					p.Compute(cfg.FlopsPerPoint * int64(nx))
					p.WriteRange(base, int64(nx), memory.WordSize)
					poststoreLine(base, int64(nx), memory.WordSize)
				}
			}
			tracePhase("phase1")
			bar.Wait(p)
			tracePhase("bar1")

			// --- Phase 2: y sweep over my z-slab.
			for k := zb; k < ze; k++ {
				for i := 0; i < nx; i++ {
					base := addrOf(i, 0, k)
					stride := int64(nx) * memory.WordSize
					p.ReadRange(base, int64(ny), stride)
					for j := 0; j < ny; j++ {
						bufY[j] = u[idx(i, j, k)]
					}
					sy.SetConstant(SPStencil(cfg.Eps))
					sy.Solve(bufY)
					for j := 0; j < ny; j++ {
						u[idx(i, j, k)] = bufY[j]
					}
					p.Compute(cfg.FlopsPerPoint * int64(ny))
					p.WriteRange(base, int64(ny), stride)
					poststoreLine(base, int64(ny), stride)
				}
			}
			tracePhase("phase2")
			bar.Wait(p)
			tracePhase("bar2")

			// --- Phase 3: z sweep over my y-slab (repartition: the data
			// written by the z-slab owners is fetched across the ring).
			// Prefetch row j+1's planes while row j computes.
			if cfg.Prefetch {
				for k := 0; k < nz; k++ {
					p.PrefetchRange(addrOf(0, jb, k), int64(nx)*memory.WordSize)
				}
			}
			stride := planeWords * memory.WordSize
			for j := jb; j < je; j++ {
				if cfg.Prefetch && j+1 < je {
					for k := 0; k < nz; k++ {
						p.PrefetchRange(addrOf(0, j+1, k), int64(nx)*memory.WordSize)
					}
				}
				for i := 0; i < nx; i++ {
					base := addrOf(i, j, 0)
					p.ReadRange(base, int64(nz), stride)
					for k := 0; k < nz; k++ {
						bufZ[k] = u[idx(i, j, k)]
					}
					sz.SetConstant(SPStencil(cfg.Eps))
					sz.Solve(bufZ)
					for k := 0; k < nz; k++ {
						u[idx(i, j, k)] = bufZ[k]
					}
					p.Compute(cfg.FlopsPerPoint * int64(nz))
					p.WriteRange(base, int64(nz), stride)
					poststoreLine(base, int64(nz), stride)
				}
			}
			tracePhase("phase3")
			bar.Wait(p)
			tracePhase("bar3")
		}
	})
	if err != nil {
		return SPResult{}, err
	}

	for _, v := range u {
		res.Checksum += v
	}
	res.Elapsed = elapsed
	res.PerIteration = elapsed / sim.Time(cfg.Iterations)
	mon := m.TotalMonitor()
	res.SubAllocs = mon.SubAllocs
	res.RemoteRef = mon.RemoteAccesses
	return res, nil
}

// check rejects a grid, processor count or iteration count the
// solvers cannot run. RunSP and SPReference both call it first.
func (cfg SPConfig) check() error {
	if cfg.Procs < 1 || cfg.Nx < 4 || cfg.Ny < 4 || cfg.Nz < 4 || cfg.Iterations < 1 {
		return fmt.Errorf("kernels: bad SP config %+v", cfg)
	}
	if cfg.Nz < cfg.Procs || cfg.Ny < cfg.Procs {
		return fmt.Errorf("kernels: grid %dx%dx%d too small for %d procs",
			cfg.Nx, cfg.Ny, cfg.Nz, cfg.Procs)
	}
	return nil
}

// SPReference runs the same smoothing iteration serially in plain Go (no
// simulation) for verification: the parallel result must match exactly.
func SPReference(cfg SPConfig) (float64, error) {
	if err := cfg.check(); err != nil {
		return 0, err
	}
	nx, ny, nz := cfg.Nx, cfg.Ny, cfg.Nz
	u := make([]float64, nx*ny*nz)
	idx := func(i, j, k int) int { return i + nx*(j+ny*k) }
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				u[idx(i, j, k)] = float64((i*31+j*17+k*7)%97) / 97.0
			}
		}
	}
	sx, sy, sz := NewPentaSolver(nx), NewPentaSolver(ny), NewPentaSolver(nz)
	bufX, bufY, bufZ := make([]float64, nx), make([]float64, ny), make([]float64, nz)
	for it := 0; it < cfg.Iterations; it++ {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					bufX[i] = u[idx(i, j, k)]
				}
				sx.SetConstant(SPStencil(cfg.Eps))
				sx.Solve(bufX)
				for i := 0; i < nx; i++ {
					u[idx(i, j, k)] = bufX[i]
				}
			}
		}
		for k := 0; k < nz; k++ {
			for i := 0; i < nx; i++ {
				for j := 0; j < ny; j++ {
					bufY[j] = u[idx(i, j, k)]
				}
				sy.SetConstant(SPStencil(cfg.Eps))
				sy.Solve(bufY)
				for j := 0; j < ny; j++ {
					u[idx(i, j, k)] = bufY[j]
				}
			}
		}
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				for k := 0; k < nz; k++ {
					bufZ[k] = u[idx(i, j, k)]
				}
				sz.SetConstant(SPStencil(cfg.Eps))
				sz.Solve(bufZ)
				for k := 0; k < nz; k++ {
					u[idx(i, j, k)] = bufZ[k]
				}
			}
		}
	}
	sum := 0.0
	for _, v := range u {
		sum += v
	}
	return sum, nil
}
