package experiments

import (
	"fmt"
	"strings"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file holds the extension experiments that go beyond the paper's
// published artifacts: the queue-lock comparison (the locks of the paper's
// citations [1] and [13] on the paper's machine) and an explicit
// ring-saturation sweep quantifying the Section 3.1/4 claim that the
// network saturates under simultaneous remote accesses from a fully
// populated ring.

// QueueLocksConfig parameterizes the queue-lock comparison.
type QueueLocksConfig struct {
	Machine    MachineKind
	Cells      int
	Procs      []int
	OpsPerProc int
	HoldOps    int64

	Obs *obs.Session `json:"-"`
}

// DefaultQueueLocksConfig returns the standard comparison setup.
func DefaultQueueLocksConfig() QueueLocksConfig {
	return QueueLocksConfig{
		Machine: KSR1Kind, Cells: 32,
		Procs: []int{1, 4, 8, 16, 32}, OpsPerProc: 30, HoldOps: 1000,
	}
}

// QueueLocksResult reports per-lock completion time and fabric traffic.
type QueueLocksResult struct {
	Procs []int
	Locks []string
	Times [][]float64 // seconds, [lock][procPoint]
	Txns  [][]uint64  // fabric transactions
}

// String renders both tables.
func (r QueueLocksResult) String() string {
	var series []metrics.Series
	for i, l := range r.Locks {
		series = append(series, metrics.Series{Label: l, Procs: r.Procs, Values: r.Times[i]})
	}
	var b strings.Builder
	b.WriteString(metrics.Figure("Queue locks (extension): completion time", "seconds", series))
	fmt.Fprintf(&b, "%6s", "procs")
	for _, l := range r.Locks {
		fmt.Fprintf(&b, " %14s", l+" txns")
	}
	b.WriteByte('\n')
	for j, p := range r.Procs {
		fmt.Fprintf(&b, "%6d", p)
		for i := range r.Locks {
			fmt.Fprintf(&b, " %14d", r.Txns[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RunQueueLocks compares the hardware exclusive lock with Anderson's
// array lock and the MCS list lock on one machine kind.
func RunQueueLocks(cfg QueueLocksConfig) (QueueLocksResult, error) {
	kinds := []struct {
		name string
		mk   func(m *machine.Machine) ksync.Lock
	}{
		{"hw-exclusive", func(m *machine.Machine) ksync.Lock { return ksync.NewHWLock(m) }},
		{"anderson", func(m *machine.Machine) ksync.Lock { return ksync.NewAndersonLock(m) }},
		{"mcs-queue", func(m *machine.Machine) ksync.Lock { return ksync.NewMCSLock(m) }},
	}
	res := QueueLocksResult{Procs: cfg.Procs}
	res.Times = make([][]float64, len(kinds))
	res.Txns = make([][]uint64, len(kinds))
	for i, k := range kinds {
		res.Locks = append(res.Locks, k.name)
		res.Times[i] = make([]float64, len(cfg.Procs))
		res.Txns[i] = make([]uint64, len(cfg.Procs))
	}
	err := forEachObs(cfg.Obs, len(kinds)*len(cfg.Procs), func(idx int) error {
		i, j := idx/len(cfg.Procs), idx%len(cfg.Procs)
		k, pn := kinds[i], cfg.Procs[j]
		// The butterfly's gsp-free locks still work; the hardware
		// exclusive lock does not exist there.
		if cfg.Machine == ButterflyKind && k.name == "hw-exclusive" {
			return nil
		}
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells,
			fmt.Sprintf("qlocks/%s/%s/p=%d", cfg.Machine, k.name, pn))
		if err != nil {
			return err
		}
		l := k.mk(m)
		el, err := m.Run(pn, func(p *machine.Proc) {
			for op := 0; op < cfg.OpsPerProc; op++ {
				l.Acquire(p)
				p.Compute(cfg.HoldOps)
				l.Release(p)
				p.Compute(cfg.HoldOps / 2)
			}
		})
		if err != nil {
			return err
		}
		res.Times[i][j] = el.Seconds()
		res.Txns[i][j] = m.Fabric().Stats().Transactions
		return nil
	})
	return res, err
}

// SaturationConfig parameterizes the offered-load sweep: every processor
// of a fully populated machine issues remote reads separated by GapCycles
// of local work; shrinking the gap raises the offered load past the
// ring's slot capacity.
type SaturationConfig struct {
	Machine   MachineKind
	Cells     int
	Procs     int
	Accesses  int64 // remote reads per processor per point
	GapCycles []int64

	Obs *obs.Session `json:"-"`
}

// DefaultSaturationConfig sweeps a fully populated KSR-1 ring.
func DefaultSaturationConfig() SaturationConfig {
	return SaturationConfig{
		Machine: KSR1Kind, Cells: 32, Procs: 32, Accesses: 400,
		GapCycles: []int64{2000, 1000, 500, 250, 100, 0},
	}
}

// SaturationPoint is one sweep point.
type SaturationPoint struct {
	GapCycles  int64
	MeanUs     float64 // mean remote access latency
	Throughput float64 // achieved transactions per simulated second
	SlotWaitUs float64 // mean time queued for a slot
}

// SaturationResult is the full sweep.
type SaturationResult struct {
	Procs  int
	Points []SaturationPoint
}

// String renders the sweep.
func (r SaturationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ring saturation sweep (%d processors, all-remote reads)\n", r.Procs)
	fmt.Fprintf(&b, "%12s %14s %18s %14s\n", "gap (cycles)", "latency (us)", "throughput (tx/s)", "slot wait (us)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%12d %14.3f %18.3g %14.3f\n", p.GapCycles, p.MeanUs, p.Throughput, p.SlotWaitUs)
	}
	return b.String()
}

// RunSaturation performs the sweep. Each processor owns a private remote
// target region (all distinct sub-pages: no sharing, pure bandwidth).
func RunSaturation(cfg SaturationConfig) (SaturationResult, error) {
	if cfg.Procs < 1 || cfg.Accesses < 1 {
		return SaturationResult{}, fmt.Errorf("experiments: saturation needs Procs and Accesses of at least 1 (got %d and %d)", cfg.Procs, cfg.Accesses)
	}
	res := SaturationResult{Procs: cfg.Procs}
	res.Points = make([]SaturationPoint, len(cfg.GapCycles))
	err := forEachObs(cfg.Obs, len(cfg.GapCycles), func(gi int) error {
		gap := cfg.GapCycles[gi]
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, fmt.Sprintf("saturation/gap=%d", gap))
		if err != nil {
			return err
		}
		size := cfg.Accesses * memory.SubPageSize
		targets := make([]memory.Region, cfg.Procs+1)
		for i := range targets {
			targets[i] = m.Alloc(fmt.Sprintf("t%d", i), size)
		}
		bar := ksync.Traced(m, ksync.NewTournament(m, cfg.Procs, true))
		perProc := make([]sim.Time, cfg.Procs)
		var window sim.Time
		_, err = m.Run(cfg.Procs, func(p *machine.Proc) {
			id := p.CellID()
			// Cache my own region so neighbours read valid remote copies.
			p.ReadRange(targets[id].Base, cfg.Accesses, memory.SubPageSize)
			bar.Wait(p)
			start := p.Now()
			t := targets[id+1]
			for a := int64(0); a < cfg.Accesses; a++ {
				p.Read(t.At(a * memory.SubPageSize))
				p.Compute(gap)
			}
			perProc[id] = p.Now() - start
			if p.CellID() == 0 {
				window = perProc[0]
			}
		})
		if err != nil {
			return err
		}
		var total sim.Time
		for _, t := range perProc {
			total += t
			if t > window {
				window = t
			}
		}
		mean := total / sim.Time(cfg.Procs) / sim.Time(cfg.Accesses)
		gapTime := sim.Time(gap) * 50 // KSR-1 cycle
		latency := mean - gapTime
		stats := m.Fabric().Stats()
		res.Points[gi] = SaturationPoint{
			GapCycles: gap,
			MeanUs:    latency.Micros(),
			SlotWaitUs: (sim.Time(stats.TotalWait) /
				sim.Time(stats.Transactions)).Micros(),
			Throughput: float64(cfg.Procs) * float64(cfg.Accesses) / window.Seconds(),
		}
		return nil
	})
	return res, err
}
