package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// EPConfig parameterizes the EP scalability run (Section 3.3 opening).
type EPConfig struct {
	Machine  MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells    int         `help:"machine size"`
	Procs    []int       `help:"comma-separated processor counts"`
	LogPairs int         `help:"generate 2^logpairs pairs (paper: 28)"`

	observed
}

// DefaultEPExperiment returns the scaled EP sweep.
func DefaultEPExperiment() EPConfig {
	return EPConfig{Machine: KSR1Kind, Cells: 32, Procs: []int{1, 2, 4, 8, 16, 32}, LogPairs: 18}
}

// EPExperimentResult holds the EP scalability table.
type EPExperimentResult struct {
	Rows        []metrics.Row
	MFLOPSAtOne float64
	Verified    bool // per-P results identical
}

// String renders the table.
func (r EPExperimentResult) String() string {
	return metrics.Table("Embarrassingly Parallel (EP)", r.Rows) +
		fmt.Sprintf("single-processor rate: %.1f MFLOPS (paper: ~11 of 40 peak)\n", r.MFLOPSAtOne)
}

// RunEPExperiment sweeps EP over processor counts.
func RunEPExperiment(cfg EPConfig) (EPExperimentResult, error) {
	var res EPExperimentResult
	res.Verified = true
	points := make([]metrics.Point, len(cfg.Procs))
	outs := make([]kernels.EPResult, len(cfg.Procs))
	err := forEachObs(cfg.Obs, len(cfg.Procs), func(i int) error {
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, fmt.Sprintf("ep/p=%d", cfg.Procs[i]))
		if err != nil {
			return err
		}
		kcfg := kernels.DefaultEPConfig(cfg.Procs[i])
		kcfg.LogPairs = cfg.LogPairs
		out, err := kernels.RunEP(m, kcfg)
		if err != nil {
			return err
		}
		outs[i] = out
		points[i] = metrics.Point{Procs: cfg.Procs[i], Elapsed: out.Elapsed}
		return nil
	})
	if err != nil {
		return res, err
	}
	// Verification against the first point is a deterministic post-pass.
	for i, out := range outs {
		if i == 0 {
			res.MFLOPSAtOne = out.MFLOPS
		} else if out.Annuli != outs[0].Annuli {
			res.Verified = false
		}
	}
	res.Rows = metrics.BuildRows(points)
	return res, nil
}

// CGExperimentConfig parameterizes the Table 1 / Figure 8 CG run.
type CGExperimentConfig struct {
	Machine    MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells      int         `help:"machine size"`
	Procs      []int       `help:"comma-separated processor counts"`
	N          int         `help:"matrix order (paper: 14000)"`
	NNZ        int         `help:"nonzeros (paper: 2030000)"`
	Iterations int         `flag:"iters" help:"CG iterations"`
	Poststore  bool        `help:"poststore each produced vector element"`

	observed
}

// DefaultCGExperiment returns the scaled Table 1 setup (the paper's
// n=14000, nnz=2.03M is reachable via flags).
func DefaultCGExperiment() CGExperimentConfig {
	return CGExperimentConfig{
		Machine: KSR1Kind, Cells: 32, Procs: []int{1, 2, 4, 8, 16, 32},
		N: 1400, NNZ: 20300, Iterations: 15,
	}
}

// KernelTableResult is a scalability table plus verification data, shared
// by the CG and IS experiments.
type KernelTableResult struct {
	Title    string
	Rows     []metrics.Row
	Verified bool
	Extra    string
}

// String renders the table.
func (r KernelTableResult) String() string {
	s := metrics.Table(r.Title, r.Rows)
	if r.Extra != "" {
		s += r.Extra
	}
	return s
}

// RunCGExperiment reproduces Table 1 (and the CG curve of Figure 8).
func RunCGExperiment(cfg CGExperimentConfig) (KernelTableResult, error) {
	res := KernelTableResult{
		Title:    fmt.Sprintf("Table 1: Conjugate Gradient, n=%d, nonzeros~%d", cfg.N, cfg.NNZ),
		Verified: true,
	}
	points := make([]metrics.Point, len(cfg.Procs))
	residuals := make([]float64, len(cfg.Procs))
	err := forEachObs(cfg.Obs, len(cfg.Procs), func(i int) error {
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, fmt.Sprintf("cg/p=%d", cfg.Procs[i]))
		if err != nil {
			return err
		}
		kcfg := kernels.DefaultCGConfig(cfg.Procs[i])
		kcfg.N, kcfg.NNZ, kcfg.Iterations = cfg.N, cfg.NNZ, cfg.Iterations
		kcfg.UsePoststore = cfg.Poststore
		out, err := kernels.RunCG(m, kcfg)
		if err != nil {
			return err
		}
		residuals[i] = out.Residual
		points[i] = metrics.Point{Procs: cfg.Procs[i], Elapsed: out.Elapsed}
		return nil
	})
	if err != nil {
		return res, err
	}
	if len(residuals) == 0 {
		return res, nil
	}
	res.Verified = residualsAgree(residuals)
	res.Rows = metrics.BuildRows(points)
	return res, nil
}

// residualsAgree reports whether every CG residual of a non-empty list
// matches the first within a relative tolerance: reduction order differs
// across processor counts, so bit-exact equality is not expected. A NaN
// residual never agrees, although NaN - NaN fails neither bound of the
// tolerance.
func residualsAgree(residuals []float64) bool {
	ref := residuals[0]
	for _, r := range residuals {
		if diff := r - ref; math.IsNaN(diff) || diff > 1e-6*(1+ref) || diff < -1e-6*(1+ref) {
			return false
		}
	}
	return true
}

// CGPoststoreResult is the poststore ablation: the percentage CG time
// saved by poststore at each processor count.
type CGPoststoreResult struct {
	Procs       []int
	Improvement []float64 // percent; positive means poststore helped
}

// String renders one line per processor count.
func (r CGPoststoreResult) String() string {
	var b strings.Builder
	b.WriteString("poststore improvement (percent, paper: ~3% at 16, less at 32):\n")
	for i, pn := range r.Procs {
		fmt.Fprintf(&b, "  %2d procs: %+.2f%%\n", pn, r.Improvement[i])
	}
	return b.String()
}

// RunCGPoststoreAblation measures the poststore benefit the paper reports
// (~3% at 16 processors, fading at 32) by running CG with poststore off
// and on. Poststore is the knob it ablates, so cfg must leave it off:
// one ablation then has one canonical config.
func RunCGPoststoreAblation(cfg CGExperimentConfig) (CGPoststoreResult, error) {
	if cfg.Poststore {
		return CGPoststoreResult{}, fmt.Errorf("experiments: the poststore ablation runs poststore off and on; Poststore must be false")
	}
	// One job per (P, poststore on/off) pair.
	times := make([]sim.Time, 2*len(cfg.Procs))
	err := forEachObs(cfg.Obs, len(times), func(k int) error {
		pn, ps := cfg.Procs[k/2], k%2 == 1
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, fmt.Sprintf("cg-poststore/p=%d/ps=%v", pn, ps))
		if err != nil {
			return err
		}
		kcfg := kernels.DefaultCGConfig(pn)
		kcfg.N, kcfg.NNZ, kcfg.Iterations = cfg.N, cfg.NNZ, cfg.Iterations
		kcfg.UsePoststore = ps
		out, err := kernels.RunCG(m, kcfg)
		if err != nil {
			return err
		}
		times[k] = out.Elapsed
		return nil
	})
	if err != nil {
		return CGPoststoreResult{}, err
	}
	res := CGPoststoreResult{Procs: cfg.Procs, Improvement: make([]float64, len(cfg.Procs))}
	for i := range cfg.Procs {
		res.Improvement[i] = 100 * (1 - float64(times[2*i+1])/float64(times[2*i]))
	}
	return res, nil
}

// ISExperimentConfig parameterizes the Table 2 / Figure 8 IS run.
type ISExperimentConfig struct {
	Machine   MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells     int         `help:"machine size"`
	Procs     []int       `help:"comma-separated processor counts"`
	LogKeys   int         `help:"2^logkeys keys (paper: 23)"`
	LogMaxKey int         `help:"keys < 2^logmaxkey (paper: 19)"`

	observed
}

// DefaultISExperiment returns the scaled Table 2 setup (paper: 2^23 keys).
func DefaultISExperiment() ISExperimentConfig {
	return ISExperimentConfig{
		Machine: KSR1Kind, Cells: 32, Procs: []int{1, 2, 4, 8, 16, 30, 32},
		LogKeys: 17, LogMaxKey: 11,
	}
}

// RunISExperiment reproduces Table 2 (and the IS curve of Figure 8).
func RunISExperiment(cfg ISExperimentConfig) (KernelTableResult, error) {
	res := KernelTableResult{
		Title:    fmt.Sprintf("Table 2: Integer Sort, keys=2^%d", cfg.LogKeys),
		Verified: true,
	}
	points := make([]metrics.Point, len(cfg.Procs))
	sorted := make([]bool, len(cfg.Procs))
	err := forEachObs(cfg.Obs, len(cfg.Procs), func(i int) error {
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, fmt.Sprintf("is/p=%d", cfg.Procs[i]))
		if err != nil {
			return err
		}
		kcfg := kernels.DefaultISConfig(cfg.Procs[i])
		kcfg.LogKeys, kcfg.LogMaxKey = cfg.LogKeys, cfg.LogMaxKey
		out, err := kernels.RunIS(m, kcfg)
		if err != nil {
			return err
		}
		sorted[i] = out.Sorted
		points[i] = metrics.Point{Procs: cfg.Procs[i], Elapsed: out.Elapsed}
		return nil
	})
	if err != nil {
		return res, err
	}
	for _, ok := range sorted {
		if !ok {
			res.Verified = false
		}
	}
	res.Rows = metrics.BuildRows(points)
	return res, nil
}

// Figure8 renders the CG and IS speedup curves together.
func Figure8(cg, is KernelTableResult) string {
	var series []metrics.Series
	for _, t := range []struct {
		label string
		r     KernelTableResult
	}{{"CG", cg}, {"IS", is}} {
		s := metrics.Series{Label: t.label}
		for _, row := range t.r.Rows {
			s.Procs = append(s.Procs, row.Procs)
			s.Values = append(s.Values, row.Speedup)
		}
		series = append(series, s)
	}
	return metrics.Figure("Figure 8: Speedup for CG and IS", "speedup", series)
}

// SPExperimentConfig parameterizes the Table 3 and Table 4 runs.
type SPExperimentConfig struct {
	Machine    MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells      int         `help:"machine size"`
	Procs      []int       `help:"comma-separated processor counts"`
	Nx, Ny, Nz int         `help:"grid points along this axis (paper: 64)"`
	Iterations int         `flag:"iters" help:"iterations (paper runs 400)"`

	observed
}

// DefaultSPExperiment returns the Table 3 setup at the paper's 64x64x64
// grid (one iteration instead of 400).
func DefaultSPExperiment() SPExperimentConfig {
	return SPExperimentConfig{
		Machine: KSR1Kind, Cells: 32, Procs: []int{1, 2, 4, 8, 16, 31},
		Nx: 64, Ny: 64, Nz: 64, Iterations: 1,
	}
}

// SPTableResult is a per-iteration scalability table for the grid
// applications (SP's Table 3, and the BT extension).
type SPTableResult struct {
	Title    string
	Grid     string
	Rows     []metrics.Row
	Verified bool
}

// String renders the table.
func (r SPTableResult) String() string {
	title := r.Title
	if title == "" {
		title = "Table 3: Scalar Pentadiagonal"
	}
	return metrics.Table(title+", data-size="+r.Grid, r.Rows)
}

// RunSPExperiment reproduces Table 3 with the optimized configuration
// (padding + prefetch, the paper's best non-poststore variant).
func RunSPExperiment(cfg SPExperimentConfig) (SPTableResult, error) {
	res := SPTableResult{
		Grid:     fmt.Sprintf("%dx%dx%d", cfg.Nx, cfg.Ny, cfg.Nz),
		Verified: true,
	}
	ref, err := kernels.SPReference(kernels.SPConfig{
		Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.Nz, Iterations: cfg.Iterations,
		Procs: 1, Eps: 0.05, FlopsPerPoint: 80,
	})
	if err != nil {
		return res, err
	}
	points := make([]metrics.Point, len(cfg.Procs))
	sums := make([]float64, len(cfg.Procs))
	err = forEachObs(cfg.Obs, len(cfg.Procs), func(i int) error {
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, fmt.Sprintf("sp/p=%d", cfg.Procs[i]))
		if err != nil {
			return err
		}
		kcfg := kernels.SPConfig{
			Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.Nz, Iterations: cfg.Iterations,
			Procs: cfg.Procs[i], Eps: 0.05, FlopsPerPoint: 80,
			Padding: true, Prefetch: true,
		}
		out, err := kernels.RunSP(m, kcfg)
		if err != nil {
			return err
		}
		sums[i] = out.Checksum
		points[i] = metrics.Point{Procs: cfg.Procs[i], Elapsed: out.PerIteration}
		return nil
	})
	if err != nil {
		return res, err
	}
	for _, sum := range sums {
		if d := sum - ref; d > 1e-9 || d < -1e-9 {
			res.Verified = false
		}
	}
	res.Rows = metrics.BuildRows(points)
	return res, nil
}

// BTExperimentConfig parameterizes the Block Tridiagonal extension run
// (the third code of the paper's reference [6]).
type BTExperimentConfig struct {
	Machine    MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells      int         `help:"machine size"`
	Procs      []int       `help:"comma-separated processor counts"`
	Nx, Ny, Nz int         `help:"grid points along this axis"`
	Iterations int         `flag:"iters" help:"iterations"`

	observed
}

// DefaultBTExperiment returns a moderate BT sweep.
func DefaultBTExperiment() BTExperimentConfig {
	return BTExperimentConfig{
		Machine: KSR1Kind, Cells: 32, Procs: []int{1, 2, 4, 8, 16},
		Nx: 16, Ny: 16, Nz: 16, Iterations: 1,
	}
}

// RunBTExperiment sweeps BT over processor counts, verifying every run
// against the serial reference.
func RunBTExperiment(cfg BTExperimentConfig) (SPTableResult, error) {
	res := SPTableResult{
		Title:    "Block Tridiagonal (extension, per reference [6])",
		Grid:     fmt.Sprintf("%dx%dx%d", cfg.Nx, cfg.Ny, cfg.Nz),
		Verified: true,
	}
	kcfg := kernels.DefaultBTConfig(1)
	kcfg.Nx, kcfg.Ny, kcfg.Nz, kcfg.Iterations = cfg.Nx, cfg.Ny, cfg.Nz, cfg.Iterations
	ref, err := kernels.BTReference(kcfg)
	if err != nil {
		return res, err
	}
	points := make([]metrics.Point, len(cfg.Procs))
	sums := make([]float64, len(cfg.Procs))
	err = forEachObs(cfg.Obs, len(cfg.Procs), func(i int) error {
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, fmt.Sprintf("bt/p=%d", cfg.Procs[i]))
		if err != nil {
			return err
		}
		kc := kcfg // per-job copy: jobs run concurrently
		kc.Procs = cfg.Procs[i]
		out, err := kernels.RunBT(m, kc)
		if err != nil {
			return err
		}
		sums[i] = out.Checksum
		points[i] = metrics.Point{Procs: cfg.Procs[i], Elapsed: out.PerIteration}
		return nil
	})
	if err != nil {
		return res, err
	}
	for _, sum := range sums {
		if d := sum - ref; d > 1e-9 || d < -1e-9 {
			res.Verified = false
		}
	}
	res.Rows = metrics.BuildRows(points)
	return res, nil
}

// SPOptsResult is Table 4: the optimization ladder at a fixed processor
// count, in seconds per iteration.
type SPOptsResult struct {
	Procs     int
	Base      float64
	Padded    float64
	Prefetch  float64 // padding + prefetch
	Poststore float64 // padding + prefetch + poststore (the paper's loss)
}

// String renders Table 4.
func (r SPOptsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Scalar Pentadiagonal optimizations (%d processors)\n", r.Procs)
	fmt.Fprintf(&b, "  %-34s %12s\n", "Optimizations", "s/iteration")
	fmt.Fprintf(&b, "  %-34s %12.5f\n", "Base version", r.Base)
	fmt.Fprintf(&b, "  %-34s %12.5f\n", "+ data padding and alignment", r.Padded)
	fmt.Fprintf(&b, "  %-34s %12.5f\n", "+ prefetching appropriate data", r.Prefetch)
	fmt.Fprintf(&b, "  %-34s %12.5f (poststore hurts, as in the paper)\n",
		"+ poststore (ablation)", r.Poststore)
	return b.String()
}

// SPOptsConfig parameterizes the Table 4 optimization ladder (the form
// job specs submit): the SP machine and grid plus the single processor
// count the ladder runs at.
type SPOptsConfig struct {
	Machine    MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells      int         `help:"machine size"`
	Nx, Ny, Nz int         `help:"grid points along this axis (paper: 64)"`
	Iterations int         `flag:"iters" help:"iterations (paper runs 400)"`
	OptProcs   int         `help:"processor count the ladder runs at (paper: 30)"`

	observed
}

// DefaultSPOptsConfig runs the ladder on the Table 3 grid at 16 processors.
func DefaultSPOptsConfig() SPOptsConfig {
	sp := DefaultSPExperiment()
	return SPOptsConfig{
		Machine: sp.Machine, Cells: sp.Cells,
		Nx: sp.Nx, Ny: sp.Ny, Nz: sp.Nz, Iterations: sp.Iterations,
		OptProcs: 16,
	}
}

// RunSPOpts reproduces Table 4: base, +padding, +prefetch, and the
// poststore ablation, at cfg.OptProcs processors.
func RunSPOpts(cfg SPOptsConfig) (SPOptsResult, error) {
	procs := cfg.OptProcs
	res := SPOptsResult{Procs: procs}
	run := func(label string, pad, pre, post bool) (float64, error) {
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, "spopts/"+label)
		if err != nil {
			return 0, err
		}
		out, err := kernels.RunSP(m, kernels.SPConfig{
			Nx: cfg.Nx, Ny: cfg.Ny, Nz: cfg.Nz, Iterations: cfg.Iterations,
			Procs: procs, Eps: 0.05, FlopsPerPoint: 80,
			Padding: pad, Prefetch: pre, Poststore: post,
		})
		if err != nil {
			return 0, err
		}
		return out.PerIteration.Seconds(), nil
	}
	variants := []struct {
		label          string
		pad, pre, post bool
	}{
		{"base", false, false, false},
		{"pad", true, false, false},
		{"prefetch", true, true, false},
		{"poststore", true, true, true},
	}
	out := make([]float64, len(variants))
	err := forEachObs(cfg.Obs, len(variants), func(i int) error {
		v, err := run(variants[i].label, variants[i].pad, variants[i].pre, variants[i].post)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Base, res.Padded, res.Prefetch, res.Poststore = out[0], out[1], out[2], out[3]
	return res, nil
}
