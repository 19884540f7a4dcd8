package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func workloadUsage() {
	fmt.Fprintf(os.Stderr, `ksrsim workload — declarative scenario engine (see docs/WORKLOADS.md)

Usage: ksrsim [global flags] workload <subcommand> [flags]

Subcommands:
  list      show the built-in presets
  run       sweep a spec across processor counts (speedup table)
  record    execute one point and save its operation trace
  replay    re-drive a machine from a recorded trace
  perturb   rewrite one knob of a recorded trace

Run 'ksrsim workload <subcommand> -h' for flags.
`)
}

func cmdWorkload(args []string) {
	if len(args) == 0 {
		workloadUsage()
		os.Exit(2)
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "list":
		cmdWorkloadList(rest)
	case "run":
		cmdWorkloadRun(rest)
	case "record":
		cmdWorkloadRecord(rest)
	case "replay":
		cmdWorkloadReplay(rest)
	case "perturb":
		cmdWorkloadPerturb(rest)
	case "-h", "--help", "help":
		workloadUsage()
	default:
		fmt.Fprintf(os.Stderr, "ksrsim workload: unknown subcommand %q\n\n", sub)
		workloadUsage()
		os.Exit(2)
	}
}

// loadSpec resolves the -preset/-spec flag pair into a validated spec.
func loadSpec(preset, specFile string) (workload.Spec, error) {
	switch {
	case preset != "" && specFile != "":
		return workload.Spec{}, fmt.Errorf("workload: -preset and -spec are mutually exclusive")
	case preset != "":
		return workload.Preset(preset)
	case specFile != "":
		raw, err := os.ReadFile(specFile)
		if err != nil {
			return workload.Spec{}, err
		}
		return workload.DecodeSpec(raw)
	default:
		return workload.Spec{}, fmt.Errorf("workload: need -preset <name> or -spec <file>")
	}
}

// workloadPresetList is the `workload list` result (String + JSON forms).
type workloadPresetList struct {
	Presets []workloadPresetInfo `json:"presets"`
}

type workloadPresetInfo struct {
	Name    string `json:"name"`
	Machine string `json:"machine"`
	Cells   int    `json:"cells"`
	Tenants int    `json:"tenants"`
	Procs   int    `json:"procs"`
}

func (l workloadPresetList) String() string {
	out := "Built-in workload presets (ksrsim workload run -preset <name>):\n"
	for _, p := range l.Presets {
		out += fmt.Sprintf("  %-18s %s/%d cells, %d tenant(s), %d procs\n",
			p.Name, p.Machine, p.Cells, p.Tenants, p.Procs)
	}
	return out
}

func cmdWorkloadList(args []string) {
	fs := flag.NewFlagSet("workload list", flag.ExitOnError)
	fs.Parse(args)
	var l workloadPresetList
	for _, name := range workload.PresetNames() {
		s, err := workload.Preset(name)
		if err != nil {
			fail(err)
		}
		l.Presets = append(l.Presets, workloadPresetInfo{
			Name: name, Machine: s.Machine, Cells: s.Cells,
			Tenants: len(s.Tenants), Procs: s.TotalProcs(),
		})
	}
	emit(l)
}

func cmdWorkloadRun(args []string) {
	fs := flag.NewFlagSet("workload run", flag.ExitOnError)
	preset := fs.String("preset", "", "built-in preset name (see 'workload list')")
	specFile := fs.String("spec", "", "workload spec JSON file")
	var cfg experiments.WorkloadConfig
	fs.Var(fieldValue{reflect.ValueOf(&cfg.Procs).Elem()}, "procs", "comma-separated processor counts")
	fs.Parse(args)
	spec, err := loadSpec(*preset, *specFile)
	if err != nil {
		fail(err)
	}
	cfg.Spec = spec
	res, err := experiments.RunWorkload(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
}

// executeTrace runs a trace on a labeled machine (recording into the
// session installed by the global observability flags, when any) and
// writes the canonical report to reportFile when set.
func executeTrace(t *workload.Trace, reportFile string) {
	label := fmt.Sprintf("wl/%s/p=%d", t.Header.Spec.Name, len(t.Header.Slots))
	rep, err := workload.Execute(t, workload.ExecOptions{
		Obs:  experiments.ObsSession().Recorder(label),
		Prof: experiments.ProfSession().Recorder(label),
	})
	if err != nil {
		fail(err)
	}
	if reportFile != "" {
		b, err := rep.Canonical()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(reportFile, b, 0o644); err != nil {
			fail(err)
		}
	}
	emit(*rep)
}

func cmdWorkloadRecord(args []string) {
	fs := flag.NewFlagSet("workload record", flag.ExitOnError)
	preset := fs.String("preset", "", "built-in preset name")
	specFile := fs.String("spec", "", "workload spec JSON file")
	procs := fs.Int("procs", 0, "scale the spec to this many procs (0 = as written)")
	out := fs.String("o", "", "trace output path (required)")
	reportFile := fs.String("report", "", "write the canonical execution report to file")
	fs.Parse(args)
	if *out == "" {
		fail(fmt.Errorf("workload record: -o <trace file> is required"))
	}
	spec, err := loadSpec(*preset, *specFile)
	if err != nil {
		fail(err)
	}
	if *procs > 0 {
		if spec, err = spec.Scaled(*procs); err != nil {
			fail(err)
		}
	}
	t, err := workload.Compile(spec)
	if err != nil {
		fail(err)
	}
	if err := t.WriteFile(*out); err != nil {
		fail(err)
	}
	executeTrace(t, *reportFile)
}

func cmdWorkloadReplay(args []string) {
	fs := flag.NewFlagSet("workload replay", flag.ExitOnError)
	traceIn := fs.String("trace", "", "recorded trace path (required)")
	reportFile := fs.String("report", "", "write the canonical execution report to file")
	fs.Parse(args)
	if *traceIn == "" {
		fail(fmt.Errorf("workload replay: -trace <file> is required"))
	}
	t, err := workload.LoadFile(*traceIn)
	if err != nil {
		fail(err)
	}
	executeTrace(t, *reportFile)
}

func cmdWorkloadPerturb(args []string) {
	fs := flag.NewFlagSet("workload perturb", flag.ExitOnError)
	traceIn := fs.String("trace", "", "recorded trace path (required)")
	out := fs.String("o", "", "perturbed trace output path (required)")
	scale := fs.Float64("scale-compute", 0, "multiply every compute delay (arrival gaps, think time)")
	rotate := fs.Int("rotate-cells", 0, "remap every slot's cell by +n mod cells")
	lock := fs.String("lock", "", "swap every lock to this algorithm (hw, anderson, mcs)")
	barrier := fs.String("barrier", "", "swap every barrier to this algorithm (ksync name or flag)")
	fs.Parse(args)
	if *traceIn == "" || *out == "" {
		fail(fmt.Errorf("workload perturb: -trace <in> and -o <out> are required"))
	}
	t, err := workload.LoadFile(*traceIn)
	if err != nil {
		fail(err)
	}
	p := workload.Perturbation{
		ScaleCompute: *scale, RotateCells: *rotate,
		Lock: *lock, Barrier: *barrier,
	}
	if err := t.Perturb(p); err != nil {
		fail(err)
	}
	if err := t.WriteFile(*out); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "ksrsim: perturbed trace written to %s (%v)\n", *out, t.Header.Perturbed)
}

// experimentCatalog is the `ksrsim experiments` result.
type experimentCatalog struct {
	Experiments []experiments.Info `json:"experiments"`
}

func (c experimentCatalog) String() string {
	out := "Registered experiments (sorted; runnable locally or via ksrsimd):\n"
	for _, e := range c.Experiments {
		out += fmt.Sprintf("  %-22s %s\n", e.Name, e.Describe)
	}
	return out
}

func cmdExperiments(args []string) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.Parse(args)
	emit(experimentCatalog{Experiments: experiments.ExperimentInfos()})
}
