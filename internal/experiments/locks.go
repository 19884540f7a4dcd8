package experiments

import (
	"fmt"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// LocksConfig parameterizes the Figure 3 experiment: each processor
// performs OpsPerProc lock operations, holding the lock for HoldOps local
// operations with DelayOps local operations between requests — the paper's
// synthetic workload (500 operations, hold 3000, delay 10000).
type LocksConfig struct {
	Machine    MachineKind
	Cells      int
	Procs      []int
	OpsPerProc int
	HoldOps    int64
	DelayOps   int64
	// ReadFractions lists the read-share percentages for the software
	// read-write lock curves (the paper plots 0/20/40/60/80/100).
	ReadFractions []int
	Seed          uint64
	// TimerInterrupts enables the OS effect the paper uses to explain the
	// software lock beating the hardware lock even with writers only.
	TimerInterrupts bool

	Obs *obs.Session `json:"-"`
}

// DefaultLocksConfig returns a scaled-down Figure 3 setup (the paper's 500
// operations per processor can be restored via the CLI).
func DefaultLocksConfig() LocksConfig {
	return LocksConfig{
		Machine: KSR1Kind, Cells: 32,
		OpsPerProc: 100, HoldOps: 3000, DelayOps: 10000,
		ReadFractions: []int{0, 20, 40, 60, 80, 100},
		Seed:          12345,
	}
}

// LocksResult holds the Figure 3 curves: total completion time in seconds
// per processor count, for the hardware exclusive lock and each read-share
// fraction of the software lock.
type LocksResult struct {
	Procs     []int
	Exclusive []float64   // hardware lock
	ReadFrac  []int       // labels for Shared
	Shared    [][]float64 // [fraction][procPoint]
}

// String renders the figure.
func (r LocksResult) String() string {
	series := []metrics.Series{{Label: "exclusive(hw)", Procs: r.Procs, Values: r.Exclusive}}
	for i, f := range r.ReadFrac {
		series = append(series, metrics.Series{
			Label:  fmt.Sprintf("rw %d%% read", f),
			Procs:  r.Procs,
			Values: r.Shared[i],
		})
	}
	return metrics.Figure("Figure 3: Read/Write and Exclusive locks on the KSR", "seconds", series)
}

// RunLocks reproduces Figure 3.
func RunLocks(cfg LocksConfig) (LocksResult, error) {
	procs := cfg.Procs
	if procs == nil {
		procs = DefaultProcSweep(cfg.Cells)
	}
	if cfg.OpsPerProc < 0 {
		return LocksResult{}, fmt.Errorf("experiments: locks needs a non-negative OpsPerProc (got %d)", cfg.OpsPerProc)
	}
	if err := checkProcs(procs); err != nil {
		return LocksResult{}, err
	}
	res := LocksResult{Procs: procs, ReadFrac: cfg.ReadFractions}
	res.Exclusive = make([]float64, len(procs))
	res.Shared = make([][]float64, len(cfg.ReadFractions))
	for fi := range res.Shared {
		res.Shared[fi] = make([]float64, len(procs))
	}
	// One job per (P, lock-variant) point: variant 0 is the hardware lock,
	// variant fi+1 the software RW lock at ReadFractions[fi].
	variants := 1 + len(cfg.ReadFractions)
	err := forEachObs(cfg.Obs, len(procs)*variants, func(k int) error {
		j, v := k/variants, k%variants
		if v == 0 {
			el, err := runHWLockPoint(cfg, procs[j])
			if err != nil {
				return err
			}
			res.Exclusive[j] = el.Seconds()
			return nil
		}
		el, err := runRWLockPoint(cfg, procs[j], cfg.ReadFractions[v-1])
		if err != nil {
			return err
		}
		res.Shared[v-1][j] = el.Seconds()
		return nil
	})
	return res, err
}

func lockMachine(cfg LocksConfig, label string) (*machine.Machine, error) {
	mc, err := ConfigFor(cfg.Machine, cfg.Cells)
	if err != nil {
		return nil, err
	}
	mc.TimerInterrupts = cfg.TimerInterrupts
	return newMachineObs(cfg.Obs, mc, label)
}

func runHWLockPoint(cfg LocksConfig, pn int) (sim.Time, error) {
	m, err := lockMachine(cfg, fmt.Sprintf("locks/hw/p=%d", pn))
	if err != nil {
		return 0, err
	}
	l := ksync.NewHWLock(m)
	return m.Run(pn, func(p *machine.Proc) {
		for op := 0; op < cfg.OpsPerProc; op++ {
			l.Acquire(p)
			p.Compute(cfg.HoldOps)
			l.Release(p)
			p.Compute(cfg.DelayOps)
		}
	})
}

func runRWLockPoint(cfg LocksConfig, pn, readFrac int) (sim.Time, error) {
	m, err := lockMachine(cfg, fmt.Sprintf("locks/rw%d/p=%d", readFrac, pn))
	if err != nil {
		return 0, err
	}
	l := ksync.NewRWLock(m)
	// Pre-draw the read/write pattern so every processor count sees the
	// same deterministic mix.
	rng := sim.NewRNG(cfg.Seed)
	pattern := make([]bool, pn*cfg.OpsPerProc)
	for i := range pattern {
		pattern[i] = rng.Intn(100) < readFrac
	}
	return m.Run(pn, func(p *machine.Proc) {
		id := p.CellID()
		for op := 0; op < cfg.OpsPerProc; op++ {
			read := pattern[id*cfg.OpsPerProc+op]
			tok := l.Acquire(p, read)
			p.Compute(cfg.HoldOps)
			l.Release(p, tok)
			p.Compute(cfg.DelayOps)
		}
	})
}
