package experiments

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/metrics"
)

// CapacityConfig parameterizes the superunitary-speedup demonstration.
// The paper's Table 1 shows CG speeding up by MORE than the processor
// ratio between 4 and 16 processors, and explains it by cache capacity:
// once the per-processor share of the data fits in the node's caches, the
// remote and capacity misses of the small-P runs disappear. This
// experiment isolates that mechanism with a repeated-sweep kernel whose
// total working set exceeds one node's 32 MB local cache.
type CapacityConfig struct {
	Machine    MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells      int         `help:"machine size"`
	Procs      []int       `help:"comma-separated processor counts"`
	TotalBytes int64       `flag:"bytes" help:"total working set (needs > 32 MB)"`
	Sweeps     int         `help:"repeated passes over the working set (reuse is what capacity buys)"`

	observed
}

// DefaultCapacityConfig uses a 48 MB working set: 1.5x one local cache.
func DefaultCapacityConfig() CapacityConfig {
	return CapacityConfig{
		Machine: KSR1Kind, Cells: 32, Procs: []int{1, 2, 4, 8},
		TotalBytes: 48 * 1024 * 1024, Sweeps: 3,
	}
}

// CapacityResult reports the sweep.
type CapacityResult struct {
	Rows         []metrics.Row
	Superunitary bool // any adjacent pair sped up by more than the ratio
	Evictions    []uint64
}

// String renders the table.
func (r CapacityResult) String() string {
	var b strings.Builder
	b.WriteString(metrics.Table("Capacity effect (superunitary-speedup mechanism)", r.Rows))
	fmt.Fprintf(&b, "local-cache evictions by P:")
	for _, e := range r.Evictions {
		fmt.Fprintf(&b, " %d", e)
	}
	fmt.Fprintf(&b, "\nsuperunitary stretch observed: %v\n", r.Superunitary)
	return b.String()
}

// RunCapacityEffect measures repeated full sweeps of a block-partitioned
// working set. At small P each processor's share overflows its local
// cache, so every sweep refetches; once the share fits, sweeps run from
// cache and the speedup exceeds the processor ratio — the paper's
// superunitary effect.
func RunCapacityEffect(cfg CapacityConfig) (CapacityResult, error) {
	var res CapacityResult
	if cfg.TotalBytes < 1 {
		return res, fmt.Errorf("experiments: capacity needs TotalBytes of at least 1 (got %d)", cfg.TotalBytes)
	}
	if err := checkProcs(cfg.Procs); err != nil {
		return res, err
	}
	points := make([]metrics.Point, len(cfg.Procs))
	res.Evictions = make([]uint64, len(cfg.Procs))
	err := forEachObs(cfg.Obs, len(cfg.Procs), func(j int) error {
		pn := cfg.Procs[j]
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, fmt.Sprintf("capacity/p=%d", pn))
		if err != nil {
			return err
		}
		data := m.Alloc("capacity.data", cfg.TotalBytes)
		share := cfg.TotalBytes / int64(pn)
		el, err := m.Run(pn, func(p *machine.Proc) {
			base := data.Base + memory.Addr(int64(p.CellID())*share)
			// Page stride: one sub-page per 16 KB page keeps the event
			// count modest while still exercising page-grain capacity
			// (the local cache holds 2048 page frames).
			count := share / memory.PageSize
			for s := 0; s < cfg.Sweeps; s++ {
				p.ReadRange(base, count, memory.PageSize)
			}
		})
		if err != nil {
			return err
		}
		points[j] = metrics.Point{Procs: pn, Elapsed: el}
		var ev uint64
		for c := 0; c < pn; c++ {
			ev += m.CellAt(c).LocalCache().Stats().Evictions
		}
		res.Evictions[j] = ev
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = metrics.BuildRows(points)
	for i := 1; i < len(points); i++ {
		if metrics.Superunitary(points[i-1].Elapsed, points[i].Elapsed,
			points[i-1].Procs, points[i].Procs) {
			res.Superunitary = true
		}
	}
	return res, nil
}
