// Command ksrsim regenerates every table and figure of "Scalability Study
// of the KSR-1" on the simulated machine models. Each subcommand maps to
// one experiment; `ksrsim all` runs the full suite at the default
// (scaled-down) sizes. Paper-scale runs are reachable through flags — see
// EXPERIMENTS.md for the exact invocations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/version"
)

func usage() {
	fmt.Fprint(os.Stderr, usageHead)
	for _, e := range experiments.ExperimentInfos() {
		if _, ok := experimentCommand(e.Name); ok {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", e.Name, e.Describe)
		}
	}
	fmt.Fprint(os.Stderr, usageTail)
}

const usageHead = `ksrsim — KSR-1 scalability study reproduction

Usage: ksrsim [global flags] <command> [flags]

Global flags:
  -json              emit results as JSON instead of formatted tables
  -parallel n        run up to n sweep points concurrently (0 = all cores;
                     default 1 = sequential; output is identical either way,
                     and a progress heartbeat goes to stderr when n > 1)
  -partitions n      drive a big machine's ring partitions with n OS threads
                     (0 = all cores; default 1; results are byte-identical
                     at every setting — see docs/PERF.md)
  -cpuprofile file   write a CPU profile of the whole invocation
  -memprofile file   write a heap profile at exit

Observability (see docs/OBSERVABILITY.md):
  -trace file        write a Chrome trace_event JSON of the simulated run
                     (load in Perfetto / chrome://tracing)
  -trace-cats list   trace category filter: sim,ring,coh,cache,sync or "all"
  -sample ns         sample telemetry counters every ns of simulated time
                     (prints ASCII sparklines to stderr at exit)
  -sample-csv file   write the sampled telemetry as CSV
  -manifest file     write a JSON run manifest: config, seeds, fault plans,
                     git revision, wall-clock, results, final counters
  -profile file      write a pprof-format simulated-time phase profile
                     ("-" = print the phase report only) and print a
                     per-cell top-N table to stderr
  -profile-csv file  write the per-cell phase breakdown as CSV ("-" = stdout)
  -profile-top n     rows in the profile report's top-N table (default 16)

Experiment commands (flags are the fields of the experiment's config, as
in a ksrsimd job spec; see docs/SERVER.md):
`

const usageTail = `
Other commands:
  workload    declarative scenario engine: run/record/replay/perturb
              synthetic access+sync workloads (see docs/WORKLOADS.md)
  experiments list every registered experiment with its description
  npb         run one kernel at an NPB class (S/W/A) and print its banner
  bench       measure engine micro-costs and sweep wall-clocks (BENCH_sim.json)
  all         run everything at default sizes
  client      submit jobs to a ksrsimd daemon instead of running locally
              (see docs/SERVER.md)
  top         live fleet view of a ksrsimd daemon from /v1/metrics
              (latency histogram, queue depth sparkline, cache hit ratio)
  version     print build identity (revision, go version)

Run 'ksrsim <command> -h' for per-command flags.
`

func fail(err error) {
	finishObs()    // flush trace/manifest artifacts for the partial run
	finishProf()   // same for the simulated-time phase profile
	stopProfiles() // os.Exit skips defers; flush profiles explicitly
	fmt.Fprintln(os.Stderr, "ksrsim:", err)
	os.Exit(1)
}

// Global flags.
var (
	jsonOut     bool   // render results as JSON
	parallelN   int    // sweep-point concurrency (0 = all cores)
	partitionsN int    // PDES workers per big machine (0 = all cores)
	cpuProfile  string // pprof CPU profile path
	memProfile  string // pprof heap profile path
	cpuProfileF *os.File
)

// startProfiles begins CPU profiling if requested.
func startProfiles() {
	if cpuProfile == "" {
		return
	}
	f, err := os.Create(cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksrsim:", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "ksrsim:", err)
		os.Exit(1)
	}
	cpuProfileF = f
}

// stopProfiles flushes the CPU profile and writes the heap profile. Safe
// to call more than once.
func stopProfiles() {
	if cpuProfileF != nil {
		pprof.StopCPUProfile()
		cpuProfileF.Close()
		cpuProfileF = nil
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ksrsim:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ksrsim:", err)
		}
		f.Close()
		memProfile = ""
	}
}

// emit prints a result either as its formatted table/figure or as JSON,
// and captures it for the run manifest when one was requested.
func emit(res any) {
	captureResult(res)
	if !jsonOut {
		fmt.Print(res)
		return
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fail(err)
	}
	os.Stdout.Write(b)
	fmt.Println()
}

func main() {
	flag.Usage = usage
	flag.BoolVar(&jsonOut, "json", false, "emit results as JSON")
	flag.IntVar(&parallelN, "parallel", 1, "concurrent sweep points (0 = all cores)")
	flag.IntVar(&partitionsN, "partitions", 1, "PDES workers per big machine (0 = all cores)")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write CPU profile to file")
	flag.StringVar(&memProfile, "memprofile", "", "write heap profile to file")
	flag.StringVar(&traceFile, "trace", "", "write Chrome trace_event JSON to file")
	flag.StringVar(&traceCats, "trace-cats", "all", "trace categories (sim,ring,coh,cache,sync or all)")
	flag.Int64Var(&sampleNs, "sample", 0, "telemetry sampling interval in simulated ns (0 = off)")
	flag.StringVar(&sampleCSV, "sample-csv", "", "write sampled telemetry CSV to file")
	flag.StringVar(&manifestFile, "manifest", "", "write a JSON run manifest to file")
	flag.StringVar(&profileFile, "profile", "", "write a simulated-time pprof phase profile to file (\"-\" = report only)")
	flag.StringVar(&profileCSV, "profile-csv", "", "write the per-cell phase breakdown CSV to file (\"-\" = stdout)")
	flag.IntVar(&profileTopN, "profile-top", 16, "cells shown in the -profile report (0 = all)")
	flag.Parse()
	argv := flag.Args()
	if len(argv) == 0 {
		usage()
		os.Exit(2)
	}
	workers := experiments.SetParallelism(parallelN)
	experiments.SetProgress(workers > 1)
	experiments.SetPartitions(partitionsN)
	startProfiles()
	defer stopProfiles()
	cmd, args := argv[0], argv[1:]
	startObs(cmd, args)
	startProf()
	switch cmd {
	case "workload":
		cmdWorkload(args)
	case "experiments":
		cmdExperiments(args)
	case "npb":
		cmdNPB(args)
	case "bench":
		cmdBench(args)
	case "all":
		cmdAll(args)
	case "client":
		cmdClient(args)
	case "top":
		cmdTop(args)
	case "version":
		fmt.Println(version.String())
	case "-h", "--help", "help":
		usage()
	default:
		r, ok := experimentCommand(cmd)
		if !ok {
			fmt.Fprintf(os.Stderr, "ksrsim: unknown command %q\n\n", cmd)
			usage()
			os.Exit(2)
		}
		runExperiment(r, args)
	}
	ok := finishObs()
	if !finishProf() {
		ok = false
	}
	if !ok {
		stopProfiles()
		os.Exit(1)
	}
}

// experimentCommand returns the registry entry that `ksrsim name` runs.
// The wl-* entries are not commands: `ksrsim workload run -preset` runs
// the same presets.
func experimentCommand(name string) (experiments.Runner, bool) {
	if strings.HasPrefix(name, "wl-") {
		return experiments.Runner{}, false
	}
	return experiments.LookupExperiment(name)
}

// charts renders the -plot chart of the experiments that have one.
var charts = map[string]func(res any) string{
	"latency": func(res any) string {
		r := res.(experiments.LatencyResult)
		return metrics.Plot("Figure 2", "us/access", []metrics.Series{
			{Label: "net read", Procs: r.Procs, Values: r.NetRead},
			{Label: "net write", Procs: r.Procs, Values: r.NetWrite},
			{Label: "local read", Procs: r.Procs, Values: r.LocalRead},
			{Label: "local write", Procs: r.Procs, Values: r.LocalWrite},
		}, 60, 16, false)
	},
	"barriers": func(res any) string {
		r := res.(experiments.BarriersResult)
		var series []metrics.Series
		for i, a := range r.Algos {
			series = append(series, metrics.Series{Label: a, Procs: r.Procs, Values: r.Times[i]})
		}
		return metrics.Plot(r.Title, "s/episode", series, 60, 18, true)
	},
}

// experimentFlags returns the flag set of r's command, bound to a fresh
// default config of r, and its -plot flag (nil when r has no chart).
func experimentFlags(r experiments.Runner, handling flag.ErrorHandling) (*flag.FlagSet, any, *bool, error) {
	fs := flag.NewFlagSet(r.Name, handling)
	cfg := r.New()
	if err := bindConfig(fs, cfg); err != nil {
		return nil, nil, nil, err
	}
	var plot *bool
	if charts[r.Name] != nil {
		plot = fs.Bool("plot", false, "render an ASCII chart of the curves")
	}
	return fs, cfg, plot, nil
}

// runExperiment runs one registry experiment with its config set by
// flags, prints the result, and exits 1 when the result carries a false
// Verified bit.
func runExperiment(r experiments.Runner, args []string) {
	fs, cfg, plot, err := experimentFlags(r, flag.ExitOnError)
	if err != nil {
		fail(err)
	}
	fs.Parse(args)
	if fs.NArg() > 0 {
		fail(fmt.Errorf("%s: unexpected argument %q: flags must come before it", r.Name, fs.Arg(0)))
	}
	res, err := r.Run(nil, cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if b, ok := res.(experiments.BarriersResult); ok && len(b.Procs) > 0 {
		fmt.Printf("best at %d processors: %s\n", b.Procs[len(b.Procs)-1], b.Best())
	}
	if plot != nil && *plot {
		fmt.Print(charts[r.Name](res))
	}
	if v := reflect.ValueOf(res).FieldByName("Verified"); v.IsValid() && !v.Bool() {
		fail(fmt.Errorf("%s: verification failed (the result's Verified is false)", r.Name))
	}
}

func cmdNPB(args []string) {
	fs := flag.NewFlagSet("npb", flag.ExitOnError)
	bench := fs.String("bench", "ep", "ep | cg | is | sp")
	classFlag := fs.String("class", "S", "NPB class: S, W, or A (the paper's scale)")
	procs := fs.Int("procs", 8, "processor count")
	cells := fs.Int("cells", 32, "machine size")
	fs.Parse(args)
	cls, err := kernels.ParseClass(*classFlag)
	if err != nil {
		fail(err)
	}
	m, err := experiments.NewMachine(experiments.KSR1Kind, *cells)
	if err != nil {
		fail(err)
	}
	var rep kernels.Report
	switch *bench {
	case "ep":
		cfg, err := kernels.EPClass(cls, *procs)
		if err != nil {
			fail(err)
		}
		res, err := kernels.RunEP(m, cfg)
		if err != nil {
			fail(err)
		}
		rep = kernels.EPReport(cfg, res, "ksr1")
	case "cg":
		cfg, err := kernels.CGClass(cls, *procs)
		if err != nil {
			fail(err)
		}
		cfg.Iterations = 25
		res, err := kernels.RunCG(m, cfg)
		if err != nil {
			fail(err)
		}
		rep = kernels.CGReport(cfg, res, "ksr1", 1e-6)
	case "is":
		cfg, err := kernels.ISClass(cls, *procs)
		if err != nil {
			fail(err)
		}
		res, err := kernels.RunIS(m, cfg)
		if err != nil {
			fail(err)
		}
		rep = kernels.ISReport(cfg, res, "ksr1")
	case "sp":
		cfg, err := kernels.SPClass(cls, *procs)
		if err != nil {
			fail(err)
		}
		cfg.Padding, cfg.Prefetch = true, true
		res, err := kernels.RunSP(m, cfg)
		if err != nil {
			fail(err)
		}
		ref, err := kernels.SPReference(cfg)
		if err != nil {
			fail(err)
		}
		rep = kernels.SPReport(cfg, res, "ksr1", ref)
	default:
		fail(fmt.Errorf("unknown benchmark %q", *bench))
	}
	rep.Class = cls
	if jsonOut {
		emit(rep)
		return
	}
	fmt.Print(kernels.RenderReport(rep))
}

func cmdAll(args []string) {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	episodes := fs.Int("episodes", 50, "barrier episodes")
	fs.Parse(args)

	section := func(name string) { fmt.Printf("\n===== %s =====\n", name) }

	section("E1: Figure 2 — latencies")
	lat, err := experiments.RunLatency(experiments.DefaultLatencyConfig())
	if err != nil {
		fail(err)
	}
	emit(lat)

	section("E1b: allocation overheads")
	alloc, err := experiments.RunAlloc(experiments.DefaultAllocConfig())
	if err != nil {
		fail(err)
	}
	emit(alloc)

	section("E2: Figure 3 — locks")
	locks, err := experiments.RunLocks(experiments.DefaultLocksConfig())
	if err != nil {
		fail(err)
	}
	emit(locks)

	section("E3: Figure 4 — barriers on 32-node KSR-1")
	b1cfg := experiments.DefaultBarriersConfig()
	b1cfg.Episodes = *episodes
	b1, err := experiments.RunBarriers(b1cfg)
	if err != nil {
		fail(err)
	}
	emit(b1)
	fmt.Printf("best: %s\n", b1.Best())

	section("E4: Figure 5 — barriers on 64-node KSR-2")
	b2cfg := experiments.KSR2BarriersConfig()
	b2cfg.Episodes = *episodes
	b2, err := experiments.RunBarriers(b2cfg)
	if err != nil {
		fail(err)
	}
	emit(b2)
	fmt.Printf("best: %s\n", b2.Best())

	section("E5: Section 3.2.3 — Symmetry and Butterfly")
	cmp, err := experiments.RunComparison(experiments.CompareConfig{Cells: 16, Episodes: *episodes, Procs: []int{2, 4, 8, 16}})
	if err != nil {
		fail(err)
	}
	emit(cmp)

	section("E6: EP scalability")
	ep, err := experiments.RunEPExperiment(experiments.DefaultEPExperiment())
	if err != nil {
		fail(err)
	}
	emit(ep)

	section("E7: Table 1 — CG")
	cg, err := experiments.RunCGExperiment(experiments.DefaultCGExperiment())
	if err != nil {
		fail(err)
	}
	emit(cg)

	section("E8: Table 2 — IS")
	is, err := experiments.RunISExperiment(experiments.DefaultISExperiment())
	if err != nil {
		fail(err)
	}
	emit(is)

	section("Figure 8 — CG and IS speedups")
	fmt.Print(experiments.Figure8(cg, is))
	fmt.Print(metrics.SpeedupPlot("Figure 8 (chart)", map[string][]metrics.Row{
		"CG": cg.Rows, "IS": is.Rows,
	}, 56, 14))

	section("E9: Table 3 — SP")
	sp, err := experiments.RunSPExperiment(experiments.DefaultSPExperiment())
	if err != nil {
		fail(err)
	}
	emit(sp)

	section("E10: Table 4 — SP optimizations")
	spoCfg := experiments.DefaultSPOptsConfig()
	spoCfg.Nz = 16 // keep the z-plane size that aliases the sub-cache, cheaply
	spo, err := experiments.RunSPOpts(spoCfg)
	if err != nil {
		fail(err)
	}
	emit(spo)

	section("X1: queue locks (extension)")
	ql, err := experiments.RunQueueLocks(experiments.DefaultQueueLocksConfig())
	if err != nil {
		fail(err)
	}
	emit(ql)

	section("X2: ring saturation sweep (extension)")
	sat, err := experiments.RunSaturation(experiments.DefaultSaturationConfig())
	if err != nil {
		fail(err)
	}
	emit(sat)

	section("X3: Block Tridiagonal (extension)")
	bt, err := experiments.RunBTExperiment(experiments.DefaultBTExperiment())
	if err != nil {
		fail(err)
	}
	emit(bt)
}
