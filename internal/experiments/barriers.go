package experiments

import (
	"fmt"
	"strings"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// BarriersConfig parameterizes the barrier experiments (Figures 4 and 5,
// and the Section 3.2.3 cross-architecture comparison).
type BarriersConfig struct {
	Machine  MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells    int         `help:"machine size"`
	Procs    []int       `help:"comma-separated processor counts (default: the paper's sweep from 2 up to -cells)"`
	Episodes int         `help:"barrier episodes per measurement"`
	// Algorithms restricts the set (nil = all nine).
	Algorithms []string `flag:"algos" help:"comma-separated algorithm subset (default: all nine)"`

	observed
}

// DefaultBarriersConfig returns the Figure 4 setup.
func DefaultBarriersConfig() BarriersConfig {
	return BarriersConfig{Machine: KSR1Kind, Cells: 32, Episodes: 100}
}

// KSR2BarriersConfig returns the Figure 5 setup (64-node two-level ring).
func KSR2BarriersConfig() BarriersConfig {
	return BarriersConfig{
		Machine: KSR2Kind, Cells: 64, Episodes: 100,
		Procs: []int{16, 20, 24, 28, 32, 40, 48, 56, 64},
	}
}

// BarriersResult holds per-algorithm mean time per barrier episode.
type BarriersResult struct {
	Title string
	Procs []int
	Algos []string
	Times [][]float64 // [algo][procPoint] seconds per episode
}

// String renders the figure.
func (r BarriersResult) String() string {
	var series []metrics.Series
	for i, a := range r.Algos {
		series = append(series, metrics.Series{Label: a, Procs: r.Procs, Values: r.Times[i]})
	}
	return metrics.Figure(r.Title, "seconds/episode", series)
}

// Best returns the algorithm with the lowest time at the largest measured
// processor count.
func (r BarriersResult) Best() string {
	if len(r.Procs) == 0 {
		return ""
	}
	last := len(r.Procs) - 1
	best, bestV := "", 0.0
	for i, a := range r.Algos {
		v := r.Times[i][last]
		if best == "" || v < bestV {
			best, bestV = a, v
		}
	}
	return best
}

// RunBarriers measures every selected algorithm over the processor sweep.
func RunBarriers(cfg BarriersConfig) (BarriersResult, error) {
	if err := checkProcs(cfg.Procs); err != nil {
		return BarriersResult{}, err
	}
	if err := checkEpisodes("barriers", cfg.Episodes); err != nil {
		return BarriersResult{}, err
	}
	procs := cfg.Procs
	if procs == nil {
		procs = DefaultProcSweep(cfg.Cells)
		// Barrier figures start at 2 processors.
		if len(procs) > 0 && procs[0] == 1 {
			procs = procs[1:]
		}
	}
	algos := ksync.Algorithms()
	if cfg.Algorithms != nil {
		var filtered []ksync.Factory
		for _, name := range cfg.Algorithms {
			f, ok := ksync.ByName(name)
			if !ok {
				return BarriersResult{}, fmt.Errorf("experiments: unknown barrier %q", name)
			}
			filtered = append(filtered, f)
		}
		algos = filtered
	}
	res := BarriersResult{
		Title: fmt.Sprintf("Barrier performance on %d-node %s", cfg.Cells, strings.ToUpper(string(cfg.Machine))),
		Procs: procs,
	}
	res.Times = make([][]float64, len(algos))
	for i, f := range algos {
		res.Algos = append(res.Algos, f.Name)
		res.Times[i] = make([]float64, len(procs))
	}
	// One job per (algorithm, P) point; each builds its own machine.
	err := forEachObs(cfg.Obs, len(algos)*len(procs), func(k int) error {
		i, j := k/len(procs), k%len(procs)
		per, err := barrierPoint(cfg, algos[i], procs[j])
		if err != nil {
			return fmt.Errorf("%s at %d procs: %w", algos[i].Name, procs[j], err)
		}
		res.Times[i][j] = per.Seconds()
		return nil
	})
	return res, err
}

// barrierPoint measures mean time per episode for one (algorithm, P).
func barrierPoint(cfg BarriersConfig, f ksync.Factory, pn int) (sim.Time, error) {
	m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells,
		fmt.Sprintf("barriers/%s/%s/p=%d", cfg.Machine, f.Name, pn))
	if err != nil {
		return 0, err
	}
	b := f.New(m, pn)
	var total sim.Time
	_, err = m.Run(pn, func(p *machine.Proc) {
		// Warm up one episode (cold-cache allocation effects), then time.
		b.Wait(p)
		start := p.Now()
		for ep := 0; ep < cfg.Episodes; ep++ {
			b.Wait(p)
		}
		if p.CellID() == 0 {
			total = p.Now() - start
		}
	})
	if err != nil {
		return 0, err
	}
	return total / sim.Time(cfg.Episodes), nil
}

// checkEpisodes rejects a sweep with no barrier episode to time.
func checkEpisodes(experiment string, episodes int) error {
	if episodes < 1 {
		return fmt.Errorf("experiments: %s needs at least one barrier episode (got %d)", experiment, episodes)
	}
	return nil
}

// CompareResult bundles the Section 3.2.3 cross-architecture runs.
type CompareResult struct {
	Symmetry  BarriersResult
	Butterfly BarriersResult
}

// String renders both figures.
func (r CompareResult) String() string {
	return r.Symmetry.String() + "\n" + r.Butterfly.String()
}

// CompareConfig parameterizes the Section 3.2.3 comparison (the form job
// specs submit).
type CompareConfig struct {
	Cells    int   `help:"machine size"`
	Episodes int   `help:"barrier episodes per measurement"`
	Procs    []int `help:"comma-separated processor counts"`

	observed
}

// DefaultCompareConfig returns the setup `ksrsim compare` uses.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{Cells: 16, Episodes: 50, Procs: []int{2, 4, 8, 16}}
}

// RunComparison reproduces the Symmetry and Butterfly comparison: the
// barrier suite on both machines. The butterfly cannot run the (M)
// global-flag variants meaningfully (no coherent caches: the paper notes
// the method "cannot be used"), so they are included but expected to
// perform poorly there.
func RunComparison(cfg CompareConfig) (CompareResult, error) {
	var res CompareResult
	if err := checkEpisodes("compare", cfg.Episodes); err != nil {
		return res, err
	}
	var err error
	res.Symmetry, err = RunBarriers(BarriersConfig{
		Machine: SymmetryKind, Cells: cfg.Cells, Episodes: cfg.Episodes, Procs: cfg.Procs, observed: cfg.observed,
	})
	if err != nil {
		return res, err
	}
	res.Butterfly, err = RunBarriers(BarriersConfig{
		Machine: ButterflyKind, Cells: cfg.Cells, Episodes: cfg.Episodes, Procs: cfg.Procs, observed: cfg.observed,
	})
	return res, err
}
