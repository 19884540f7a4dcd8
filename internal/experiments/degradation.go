package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/faults"
	"repro/internal/kernels"
	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/sim"
)

// DegradationConfig parameterizes the fault-injection degradation sweep:
// the same barrier + EP + CG workloads run at each transient fault rate
// (slot loss, link degradation, coherence NACKs all at that rate), and
// the result reports how much each workload slows down relative to the
// fault-free baseline alongside the injected-fault and retry counters.
type DegradationConfig struct {
	Machine MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells   int         `help:"machine size"`
	Procs   int         `help:"processor count"`
	// Rates are the fault rates to sweep; a 0 baseline row is always run
	// first and is implicit (it need not be listed, and nil runs only it).
	Rates []float64 `help:"comma-separated fault rates in [0, 1] (the 0 baseline always runs)"`
	Seed  uint64    `help:"fault-injection seed"`

	Episodes int    `help:"barrier episodes per rate"`
	Barrier  string `help:"barrier algorithm"`

	LogPairs int `help:"EP size: 2^logpairs pairs"`

	CGN     int `help:"CG matrix order"`
	CGNNZ   int `help:"CG nonzeros"`
	CGIters int `help:"CG iterations"`

	// Checked arms the coherence invariant checker on every run; any
	// violation fails the sweep.
	Checked bool `help:"run the coherence invariant checker after every run"`

	observed
}

// DefaultDegradationConfig returns a test-scale sweep.
func DefaultDegradationConfig() DegradationConfig {
	return DegradationConfig{
		Machine:  KSR1Kind,
		Cells:    16,
		Procs:    8,
		Rates:    []float64{0.001, 0.01, 0.05},
		Seed:     1,
		Episodes: 50,
		Barrier:  "tournament(M)",
		LogPairs: 14,
		CGN:      700,
		CGNNZ:    10000,
		CGIters:  5,
	}
}

// DegradationRow is the measurement at one fault rate.
type DegradationRow struct {
	Rate float64

	BarrierSec float64 // seconds per barrier episode
	EPSec      float64 // EP elapsed seconds
	CGSec      float64 // CG elapsed seconds

	// Slowdowns relative to the rate-0 baseline row (1.0 = no change).
	BarrierSlowdown float64
	EPSlowdown      float64
	CGSlowdown      float64

	// Injected-fault and retry counters summed over the three workloads.
	SlotLosses   uint64
	LinkDegrades uint64
	NACKs        uint64
	Retries      uint64
	BackoffSec   float64 // simulated seconds spent backing off
	MaxRetryRun  int     // deepest consecutive retry run observed
}

// DegradationResult is the full sweep.
type DegradationResult struct {
	Title   string
	Machine MachineKind
	Cells   int
	Procs   int
	Barrier string
	Checked bool
	Rows    []DegradationRow

	// Verified reports that every faulty run computed the same answers
	// as the baseline (EP annuli and CG residual are bit-identical):
	// fault injection perturbs timing, never results.
	Verified bool
}

// String renders the sweep as a table.
func (r DegradationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%-8s %12s %10s %10s %8s %8s %8s %10s %9s %8s %8s\n",
		"rate", "barrier s/ep", "EP s", "CG s",
		"bar x", "EP x", "CG x", "NACKs", "retries", "losses", "degrades")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8.4g %12.3g %10.4g %10.4g %8.3f %8.3f %8.3f %10d %9d %8d %8d\n",
			row.Rate, row.BarrierSec, row.EPSec, row.CGSec,
			row.BarrierSlowdown, row.EPSlowdown, row.CGSlowdown,
			row.NACKs, row.Retries, row.SlotLosses, row.LinkDegrades)
	}
	if r.Checked {
		fmt.Fprintf(&b, "coherence invariant checker: clean on every run\n")
	}
	if r.Verified {
		fmt.Fprintf(&b, "verification: all faulty runs computed baseline-identical results\n")
	}
	return b.String()
}

// RunDegradation executes the sweep. The rate-0 baseline always runs
// first; each subsequent row reports slowdown relative to it.
func RunDegradation(c DegradationConfig) (DegradationResult, error) {
	if c.Cells < 1 {
		return DegradationResult{}, fmt.Errorf("experiments: degradation needs at least one cell (got %d)", c.Cells)
	}
	if c.Procs < 1 || c.Procs > c.Cells {
		return DegradationResult{}, fmt.Errorf("experiments: degradation needs 1..%d procs (got %d)", c.Cells, c.Procs)
	}
	if err := checkEpisodes("degradation", c.Episodes); err != nil {
		return DegradationResult{}, err
	}
	for _, rate := range c.Rates {
		if rate < 0 || rate > 1 {
			return DegradationResult{}, fmt.Errorf("experiments: fault rate must be in [0, 1] (got %g)", rate)
		}
	}
	bf, ok := ksync.ByName(c.Barrier)
	if !ok {
		return DegradationResult{}, fmt.Errorf("experiments: unknown barrier %q", c.Barrier)
	}

	res := DegradationResult{
		Title: fmt.Sprintf("Degradation under injected faults: %d-cell %s, %d procs, seed %d",
			c.Cells, strings.ToUpper(string(c.Machine)), c.Procs, c.Seed),
		Machine: c.Machine,
		Cells:   c.Cells,
		Procs:   c.Procs,
		Barrier: c.Barrier,
		Checked: c.Checked,
	}

	rates := append([]float64{0}, c.Rates...)
	mk := func(rate float64, label string) (*machine.Machine, error) {
		mc, err := ConfigFor(c.Machine, c.Cells)
		if err != nil {
			return nil, err
		}
		mc.Seed = c.Seed
		if rate > 0 {
			mc.Faults = faults.Uniform(rate)
		}
		mc.Checked = c.Checked
		return newMachineObs(c.Obs, mc, label)
	}

	// One job per (rate, workload) pair — the 12-job grain balances the
	// worker pool better than per-rate jobs would. Each job records its
	// measurement and fault counters into its own slot; rows are assembled
	// in a deterministic post-pass.
	type jobOut struct {
		sec    float64 // the workload's measurement
		ep     kernels.EPResult
		cg     kernels.CGResult
		stats  faults.Stats
		maxRun int
	}
	const nWork = 3 // 0 = barrier, 1 = EP, 2 = CG
	outs := make([]jobOut, len(rates)*nWork)
	collect := func(m *machine.Machine, rate float64, out *jobOut) error {
		if c.Checked {
			if err := m.CheckInvariants(); err != nil {
				return fmt.Errorf("rate %g: %w", rate, err)
			}
		}
		fs := m.FaultStats()
		out.stats.SlotLosses += fs.SlotLosses
		out.stats.LinkDegrades += fs.LinkDegrades
		if d := m.Directory(); d != nil {
			ds := d.Stats()
			out.stats.NACKs += ds.NACKs
			out.stats.Retries += ds.Retries
			out.stats.BackoffTime += ds.BackoffTime
			if ds.MaxRetryRun > out.maxRun {
				out.maxRun = ds.MaxRetryRun
			}
		}
		return nil
	}
	workNames := [nWork]string{"barrier", "ep", "cg"}
	err := forEachObs(c.Obs, len(outs), func(k int) error {
		rate, work := rates[k/nWork], k%nWork
		out := &outs[k]
		m, err := mk(rate, fmt.Sprintf("faults/rate=%g/%s", rate, workNames[work]))
		if err != nil {
			return err
		}
		switch work {
		case 0: // barrier episodes
			b := bf.New(m, c.Procs)
			var barrierTotal sim.Time
			_, err = m.Run(c.Procs, func(p *machine.Proc) {
				b.Wait(p) // warm-up episode
				start := p.Now()
				for ep := 0; ep < c.Episodes; ep++ {
					b.Wait(p)
				}
				if p.CellID() == 0 {
					barrierTotal = p.Now() - start
				}
			})
			if err != nil {
				return fmt.Errorf("barrier at rate %g: %w", rate, err)
			}
			out.sec = (barrierTotal / sim.Time(c.Episodes)).Seconds()
		case 1: // EP kernel
			epCfg := kernels.DefaultEPConfig(c.Procs)
			epCfg.LogPairs = c.LogPairs
			out.ep, err = kernels.RunEP(m, epCfg)
			if err != nil {
				return fmt.Errorf("EP at rate %g: %w", rate, err)
			}
			out.sec = out.ep.Elapsed.Seconds()
		case 2: // CG kernel
			cgCfg := kernels.DefaultCGConfig(c.Procs)
			cgCfg.N, cgCfg.NNZ, cgCfg.Iterations = c.CGN, c.CGNNZ, c.CGIters
			out.cg, err = kernels.RunCG(m, cgCfg)
			if err != nil {
				return fmt.Errorf("CG at rate %g: %w", rate, err)
			}
			out.sec = out.cg.Elapsed.Seconds()
		}
		return collect(m, rate, out)
	})
	if err != nil {
		return res, err
	}

	baseEP, baseCG := outs[1].ep, outs[2].cg
	resultsMatch := true
	slow := func(v, b float64) float64 {
		if b <= 0 || math.IsNaN(v) {
			return 0
		}
		return v / b
	}
	for ri, rate := range rates {
		bar, ep, cg := outs[ri*nWork], outs[ri*nWork+1], outs[ri*nWork+2]
		row := DegradationRow{Rate: rate, BarrierSec: bar.sec, EPSec: ep.sec, CGSec: cg.sec}
		if ri == 0 {
			row.BarrierSlowdown, row.EPSlowdown, row.CGSlowdown = 1, 1, 1
		} else {
			// Faults may only stretch time; the computed answers must be
			// bit-identical to the fault-free run.
			if ep.ep.Annuli != baseEP.Annuli || ep.ep.Accepted != baseEP.Accepted ||
				cg.cg.Residual != baseCG.Residual || cg.cg.Zeta != baseCG.Zeta {
				resultsMatch = false
			}
			row.BarrierSlowdown = slow(row.BarrierSec, outs[0].sec)
			row.EPSlowdown = slow(row.EPSec, outs[1].sec)
			row.CGSlowdown = slow(row.CGSec, outs[2].sec)
		}
		var stats faults.Stats
		maxRun := 0
		for w := 0; w < nWork; w++ {
			o := outs[ri*nWork+w]
			stats.SlotLosses += o.stats.SlotLosses
			stats.LinkDegrades += o.stats.LinkDegrades
			stats.NACKs += o.stats.NACKs
			stats.Retries += o.stats.Retries
			stats.BackoffTime += o.stats.BackoffTime
			if o.maxRun > maxRun {
				maxRun = o.maxRun
			}
		}
		row.SlotLosses = stats.SlotLosses
		row.LinkDegrades = stats.LinkDegrades
		row.NACKs = stats.NACKs
		row.Retries = stats.Retries
		row.BackoffSec = stats.BackoffTime.Seconds()
		row.MaxRetryRun = maxRun
		res.Rows = append(res.Rows, row)
	}
	res.Verified = resultsMatch
	return res, nil
}
