package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// WorkloadConfig parameterizes one workload-engine sweep: a full
// declarative spec (preset or hand-written) scaled to each processor
// count in Procs. The spec rides inside the config, so the canonical
// config bytes — and therefore the ksrsimd cache key — cover every knob.
type WorkloadConfig struct {
	Spec  workload.Spec `json:"spec"`
	Procs []int         `json:"procs,omitempty"`

	observed
}

// DefaultWorkloadConfig returns the sweep config for a built-in preset.
// The name must be registered; the wl-* runners guarantee that.
func DefaultWorkloadConfig(preset string) WorkloadConfig {
	s, err := workload.Preset(preset)
	if err != nil {
		panic(err)
	}
	return WorkloadConfig{Spec: s}
}

// WorkloadResult is the speedup-vs-processors curve for one spec.
type WorkloadResult struct {
	Name string        `json:"name"`
	Rows []metrics.Row `json:"rows"`
}

// String renders the curve as the usual speedup table.
func (r WorkloadResult) String() string {
	return metrics.Table("workload "+r.Name+": scalability", r.Rows)
}

// workloadProcSweep filters the default sweep to counts the spec can
// scale to (every tenant needs at least one proc).
func workloadProcSweep(s workload.Spec) []int {
	var out []int
	for _, p := range DefaultProcSweep(s.Cells) {
		if p >= len(s.Tenants) {
			out = append(out, p)
		}
	}
	return out
}

// RunWorkload sweeps the spec across processor counts: each point scales
// the spec, compiles it to a trace, and executes it on a fresh labeled
// machine ("wl/<name>/p=N"). Points run through the shared sweep pool
// and stay deterministic regardless of worker count.
func RunWorkload(cfg WorkloadConfig) (WorkloadResult, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return WorkloadResult{}, err
	}
	procs := cfg.Procs
	if procs == nil {
		procs = workloadProcSweep(cfg.Spec)
	}
	pts := make([]metrics.Point, len(procs))
	err := forEachObs(cfg.Obs, len(procs), func(i int) error {
		rep, err := workloadPoint(cfg.Obs, cfg.Spec, procs[i])
		if err != nil {
			return err
		}
		pts[i] = metrics.Point{Procs: procs[i], Elapsed: sim.FromNs(rep.ElapsedNs)}
		return nil
	})
	return WorkloadResult{Name: cfg.Spec.Name, Rows: metrics.BuildRows(pts)}, err
}

// workloadPoint runs one scaled point of the sweep.
func workloadPoint(s *obs.Session, spec workload.Spec, procs int) (*workload.Report, error) {
	scaled, err := spec.Scaled(procs)
	if err != nil {
		return nil, err
	}
	tr, err := workload.Compile(scaled)
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("wl/%s/p=%d", scaled.Name, procs)
	return workload.Execute(tr, workload.ExecOptions{
		Obs:  sessionOr(s).Recorder(label),
		Prof: ProfSession().Recorder(label),
	})
}
