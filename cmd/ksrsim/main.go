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
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/version"
)

func usage() {
	fmt.Fprintf(os.Stderr, `ksrsim — KSR-1 scalability study reproduction

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

Commands:
  latency     Figure 2: read/write latencies per memory-hierarchy level
  alloc       Section 3.1: block/page allocation overheads
  locks       Figure 3: hardware exclusive vs software read-write lock
  barriers    Figure 4 (KSR-1) / Figure 5 (-machine ksr2 -cells 64)
  compare     Section 3.2.3: barriers on Symmetry (bus) and Butterfly (MIN)
  ep          Section 3.3: Embarrassingly Parallel scalability
  bigep       extension: EP on the partitioned two-level ring (to 1088 cells)
  biglatency  extension: cross-ring fetch latency on the two-level ring
  cg          Table 1 + Figure 8: Conjugate Gradient
  is          Table 2 + Figure 8: Integer Sort
  sp          Table 3: Scalar Pentadiagonal (-opts for Table 4)
  bt          extension: Block Tridiagonal (the third code of ref [6])
  qlocks      extension: Anderson/MCS queue locks vs the hardware lock
  saturation  extension: offered-load sweep of the ring's slot capacity
  capacity    extension: the superunitary-speedup (cache capacity) effect
  faults      extension: degradation sweep under injected faults (see docs/FAULTS.md)
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
`)
}

// parseProcs parses "1,2,4,8" into a slice.
func parseProcs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("processor count must be at least 1 (got %d)", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRates parses "0.001,0.01,0.05" into a slice, rejecting rates
// outside [0, 1].
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad fault rate %q", part)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("fault rate must be in [0, 1] (got %g)", v)
		}
		out = append(out, v)
	}
	return out, nil
}

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
	case "latency":
		cmdLatency(args)
	case "alloc":
		cmdAlloc(args)
	case "locks":
		cmdLocks(args)
	case "barriers":
		cmdBarriers(args)
	case "compare":
		cmdCompare(args)
	case "ep":
		cmdEP(args)
	case "bigep":
		cmdBigEP(args)
	case "biglatency":
		cmdBigLatency(args)
	case "cg":
		cmdCG(args)
	case "is":
		cmdIS(args)
	case "sp":
		cmdSP(args)
	case "bt":
		cmdBT(args)
	case "qlocks":
		cmdQLocks(args)
	case "saturation":
		cmdSaturation(args)
	case "capacity":
		cmdCapacity(args)
	case "faults":
		cmdFaults(args)
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
		fmt.Fprintf(os.Stderr, "ksrsim: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
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

func cmdLatency(args []string) {
	fs := flag.NewFlagSet("latency", flag.ExitOnError)
	cells := fs.Int("cells", 32, "machine size")
	region := fs.Int64("region", 256*1024, "per-processor array bytes (paper: 1048576)")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	plot := fs.Bool("plot", false, "render an ASCII chart of the curves")
	fs.Parse(args)
	cfg := experiments.DefaultLatencyConfig()
	cfg.Cells = *cells
	cfg.RegionBytes = *region
	var err error
	if cfg.Procs, err = parseProcs(*procsFlag); err != nil {
		fail(err)
	}
	res, err := experiments.RunLatency(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if *plot {
		fmt.Print(metrics.Plot("Figure 2", "us/access", []metrics.Series{
			{Label: "net read", Procs: res.Procs, Values: res.NetRead},
			{Label: "net write", Procs: res.Procs, Values: res.NetWrite},
			{Label: "local read", Procs: res.Procs, Values: res.LocalRead},
			{Label: "local write", Procs: res.Procs, Values: res.LocalWrite},
		}, 60, 16, false))
	}
}

func cmdAlloc(args []string) {
	fs := flag.NewFlagSet("alloc", flag.ExitOnError)
	fs.Parse(args)
	res, err := experiments.RunAlloc(experiments.DefaultAllocConfig())
	if err != nil {
		fail(err)
	}
	emit(res)
}

func cmdLocks(args []string) {
	fs := flag.NewFlagSet("locks", flag.ExitOnError)
	cells := fs.Int("cells", 32, "machine size")
	ops := fs.Int("ops", 100, "lock operations per processor (paper: 500)")
	hold := fs.Int64("hold", 3000, "local operations while holding the lock")
	delay := fs.Int64("delay", 10000, "local operations between requests")
	interrupts := fs.Bool("interrupts", false, "model unsynchronized OS timer interrupts")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	fs.Parse(args)
	cfg := experiments.DefaultLocksConfig()
	cfg.Cells = *cells
	cfg.OpsPerProc = *ops
	cfg.HoldOps = *hold
	cfg.DelayOps = *delay
	cfg.TimerInterrupts = *interrupts
	var err error
	if cfg.Procs, err = parseProcs(*procsFlag); err != nil {
		fail(err)
	}
	res, err := experiments.RunLocks(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
}

func cmdBarriers(args []string) {
	fs := flag.NewFlagSet("barriers", flag.ExitOnError)
	machineFlag := fs.String("machine", "ksr1", "ksr1 | ksr2 | symmetry | butterfly")
	cells := fs.Int("cells", 0, "machine size (default: 32, or 64 for ksr2)")
	episodes := fs.Int("episodes", 100, "barrier episodes per measurement")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	algosFlag := fs.String("algos", "", "comma-separated algorithm subset")
	plot := fs.Bool("plot", false, "render an ASCII chart of the curves")
	fs.Parse(args)
	if *cells < 0 {
		fail(fmt.Errorf("-cells must be at least 1 (got %d)", *cells))
	}
	var cfg experiments.BarriersConfig
	if *machineFlag == "ksr2" {
		cfg = experiments.KSR2BarriersConfig()
	} else {
		cfg = experiments.DefaultBarriersConfig()
		cfg.Machine = experiments.MachineKind(*machineFlag)
	}
	if *cells != 0 {
		cfg.Cells = *cells
	}
	cfg.Episodes = *episodes
	var err error
	if p, err := parseProcs(*procsFlag); err != nil {
		fail(err)
	} else if p != nil {
		cfg.Procs = p
	}
	if *algosFlag != "" {
		cfg.Algorithms = strings.Split(*algosFlag, ",")
	}
	res, err := experiments.RunBarriers(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if len(res.Procs) > 0 {
		fmt.Printf("best at %d processors: %s\n", res.Procs[len(res.Procs)-1], res.Best())
	}
	if *plot {
		var series []metrics.Series
		for i, a := range res.Algos {
			series = append(series, metrics.Series{Label: a, Procs: res.Procs, Values: res.Times[i]})
		}
		fmt.Print(metrics.Plot(res.Title, "s/episode", series, 60, 18, true))
	}
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	cells := fs.Int("cells", 16, "machine size")
	episodes := fs.Int("episodes", 50, "barrier episodes per measurement")
	procsFlag := fs.String("procs", "2,4,8,16", "comma-separated processor counts")
	fs.Parse(args)
	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fail(err)
	}
	res, err := experiments.RunComparison(experiments.CompareConfig{Cells: *cells, Episodes: *episodes, Procs: procs})
	if err != nil {
		fail(err)
	}
	emit(res)
}

func cmdEP(args []string) {
	fs := flag.NewFlagSet("ep", flag.ExitOnError)
	logPairs := fs.Int("logpairs", 18, "generate 2^logpairs pairs (paper: 28)")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	fs.Parse(args)
	cfg := experiments.DefaultEPExperiment()
	cfg.LogPairs = *logPairs
	var err error
	if p, err := parseProcs(*procsFlag); err != nil {
		fail(err)
	} else if p != nil {
		cfg.Procs = p
	}
	res, err := experiments.RunEPExperiment(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if !res.Verified {
		fail(fmt.Errorf("EP results differ across processor counts"))
	}
}

func cmdBigEP(args []string) {
	fs := flag.NewFlagSet("bigep", flag.ExitOnError)
	machineFlag := fs.String("machine", "ksr2", "ksr1 | ksr2")
	logPairs := fs.Int("logpairs", 20, "generate 2^logpairs pairs (paper scale: 28)")
	procsFlag := fs.String("procs", "", "comma-separated total processor counts (multiples of 32 past one ring)")
	fs.Parse(args)
	cfg := experiments.DefaultBigEPExperiment()
	cfg.Machine = experiments.MachineKind(*machineFlag)
	cfg.LogPairs = *logPairs
	if p, err := parseProcs(*procsFlag); err != nil {
		fail(err)
	} else if p != nil {
		cfg.Procs = p
	}
	res, err := experiments.RunBigEPExperiment(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if !res.Verified {
		fail(fmt.Errorf("EP results differ across processor counts"))
	}
}

func cmdBigLatency(args []string) {
	fs := flag.NewFlagSet("biglatency", flag.ExitOnError)
	machineFlag := fs.String("machine", "ksr2", "ksr1 | ksr2")
	rings := fs.Int("rings", 34, "leaf rings (34 = the full 1088-cell machine)")
	fs.Parse(args)
	res, err := experiments.RunBigLatency(experiments.BigLatencyConfig{
		Machine: experiments.MachineKind(*machineFlag),
		Rings:   *rings,
	})
	if err != nil {
		fail(err)
	}
	emit(res)
}

func cmdCG(args []string) {
	fs := flag.NewFlagSet("cg", flag.ExitOnError)
	n := fs.Int("n", 1400, "matrix order (paper: 14000)")
	nnz := fs.Int("nnz", 20300, "nonzeros (paper: 2030000)")
	iters := fs.Int("iters", 15, "CG iterations")
	poststore := fs.Bool("poststore", false, "also run the poststore ablation")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	fs.Parse(args)
	cfg := experiments.DefaultCGExperiment()
	cfg.N, cfg.NNZ, cfg.Iterations = *n, *nnz, *iters
	if p, err := parseProcs(*procsFlag); err != nil {
		fail(err)
	} else if p != nil {
		cfg.Procs = p
	}
	res, err := experiments.RunCGExperiment(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if *poststore {
		imp, err := experiments.RunCGPoststoreAblation(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println("poststore improvement (percent, paper: ~3% at 16, less at 32):")
		for _, pn := range cfg.Procs {
			fmt.Printf("  %2d procs: %+.2f%%\n", pn, imp[pn])
		}
	}
}

func cmdIS(args []string) {
	fs := flag.NewFlagSet("is", flag.ExitOnError)
	logKeys := fs.Int("logkeys", 17, "2^logkeys keys (paper: 23)")
	logMax := fs.Int("logmaxkey", 11, "keys < 2^logmaxkey (paper: 19)")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	fs.Parse(args)
	cfg := experiments.DefaultISExperiment()
	cfg.LogKeys, cfg.LogMaxKey = *logKeys, *logMax
	if p, err := parseProcs(*procsFlag); err != nil {
		fail(err)
	} else if p != nil {
		cfg.Procs = p
	}
	res, err := experiments.RunISExperiment(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if !res.Verified {
		fail(fmt.Errorf("IS failed verification"))
	}
}

func cmdSP(args []string) {
	fs := flag.NewFlagSet("sp", flag.ExitOnError)
	nx := fs.Int("nx", 64, "grid x (paper: 64)")
	ny := fs.Int("ny", 64, "grid y (paper: 64)")
	nz := fs.Int("nz", 64, "grid z (paper: 64)")
	iters := fs.Int("iters", 1, "iterations (paper runs 400)")
	opts := fs.Bool("opts", false, "run the Table 4 optimization ladder instead")
	optProcs := fs.Int("optprocs", 16, "processor count for -opts (paper: 30)")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	fs.Parse(args)
	cfg := experiments.DefaultSPExperiment()
	cfg.Nx, cfg.Ny, cfg.Nz, cfg.Iterations = *nx, *ny, *nz, *iters
	if p, err := parseProcs(*procsFlag); err != nil {
		fail(err)
	} else if p != nil {
		cfg.Procs = p
	}
	if *opts {
		res, err := experiments.RunSPOpts(experiments.SPOptsConfig{SPExperimentConfig: cfg, OptProcs: *optProcs})
		if err != nil {
			fail(err)
		}
		emit(res)
		return
	}
	res, err := experiments.RunSPExperiment(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if !res.Verified {
		fail(fmt.Errorf("SP answer differs from serial reference"))
	}
}

func cmdBT(args []string) {
	fs := flag.NewFlagSet("bt", flag.ExitOnError)
	nx := fs.Int("nx", 16, "grid x")
	ny := fs.Int("ny", 16, "grid y")
	nz := fs.Int("nz", 16, "grid z")
	iters := fs.Int("iters", 1, "iterations")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	fs.Parse(args)
	cfg := experiments.DefaultBTExperiment()
	cfg.Nx, cfg.Ny, cfg.Nz, cfg.Iterations = *nx, *ny, *nz, *iters
	if p, err := parseProcs(*procsFlag); err != nil {
		fail(err)
	} else if p != nil {
		cfg.Procs = p
	}
	res, err := experiments.RunBTExperiment(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if !res.Verified {
		fail(fmt.Errorf("BT answer differs from serial reference"))
	}
}

func cmdQLocks(args []string) {
	fs := flag.NewFlagSet("qlocks", flag.ExitOnError)
	machineFlag := fs.String("machine", "ksr1", "ksr1 | ksr2 | symmetry | butterfly")
	cells := fs.Int("cells", 32, "machine size")
	ops := fs.Int("ops", 30, "lock operations per processor")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	fs.Parse(args)
	cfg := experiments.DefaultQueueLocksConfig()
	cfg.Machine = experiments.MachineKind(*machineFlag)
	cfg.Cells = *cells
	cfg.OpsPerProc = *ops
	if p, err := parseProcs(*procsFlag); err != nil {
		fail(err)
	} else if p != nil {
		cfg.Procs = p
	}
	res, err := experiments.RunQueueLocks(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
}

func cmdSaturation(args []string) {
	fs := flag.NewFlagSet("saturation", flag.ExitOnError)
	cells := fs.Int("cells", 32, "machine size")
	procs := fs.Int("procs", 32, "simultaneously communicating processors")
	accesses := fs.Int64("accesses", 400, "remote reads per processor per point")
	fs.Parse(args)
	cfg := experiments.DefaultSaturationConfig()
	cfg.Cells = *cells
	cfg.Procs = *procs
	cfg.Accesses = *accesses
	res, err := experiments.RunSaturation(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
}

func cmdCapacity(args []string) {
	fs := flag.NewFlagSet("capacity", flag.ExitOnError)
	total := fs.Int64("bytes", 48*1024*1024, "total working set (needs > 32 MB)")
	procsFlag := fs.String("procs", "", "comma-separated processor counts")
	fs.Parse(args)
	cfg := experiments.DefaultCapacityConfig()
	cfg.TotalBytes = *total
	if p, err := parseProcs(*procsFlag); err != nil {
		fail(err)
	} else if p != nil {
		cfg.Procs = p
	}
	res, err := experiments.RunCapacityEffect(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
}

func cmdFaults(args []string) {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	machineFlag := fs.String("machine", "ksr1", "ksr1 | ksr2 | symmetry | butterfly")
	cells := fs.Int("cells", 16, "machine size")
	procs := fs.Int("procs", 8, "processor count")
	episodes := fs.Int("episodes", 50, "barrier episodes per rate")
	rate := fs.Float64("rate", 0, "single fault rate (shorthand for -rates with one value)")
	ratesFlag := fs.String("rates", "", "comma-separated fault rates (default 0.001,0.01,0.05)")
	seed := fs.Uint64("seed", 1, "fault-injection seed")
	barrier := fs.String("barrier", "tournament(M)", "barrier algorithm")
	checked := fs.Bool("checked", false, "run the coherence invariant checker after every run")
	fs.Parse(args)
	if *cells < 1 {
		fail(fmt.Errorf("-cells must be at least 1 (got %d)", *cells))
	}
	if *procs < 1 {
		fail(fmt.Errorf("-procs must be at least 1 (got %d)", *procs))
	}
	if *procs > *cells {
		fail(fmt.Errorf("-procs %d exceeds -cells %d", *procs, *cells))
	}
	if *rate < 0 || *rate > 1 {
		fail(fmt.Errorf("-rate must be in [0, 1] (got %g)", *rate))
	}
	cfg := experiments.DefaultDegradationConfig()
	cfg.Machine = experiments.MachineKind(*machineFlag)
	cfg.Cells = *cells
	cfg.Procs = *procs
	cfg.Episodes = *episodes
	cfg.Seed = *seed
	cfg.Barrier = *barrier
	cfg.Checked = *checked
	if r, err := parseRates(*ratesFlag); err != nil {
		fail(err)
	} else if r != nil {
		cfg.Rates = r
	}
	if *rate > 0 {
		cfg.Rates = []float64{*rate}
	}
	res, err := experiments.RunDegradation(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
	if !res.Verified {
		fail(fmt.Errorf("faulty runs computed different results than the fault-free baseline"))
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
	spoCfg := experiments.DefaultSPExperiment()
	spoCfg.Nz = 16 // keep the z-plane size that aliases the sub-cache, cheaply
	spo, err := experiments.RunSPOpts(experiments.SPOptsConfig{SPExperimentConfig: spoCfg, OptProcs: 16})
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
