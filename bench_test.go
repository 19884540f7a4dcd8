// Package repro's benchmark harness regenerates every table and figure of
// the paper, one testing.B benchmark per artifact. Wall-clock numbers
// measure the simulator; the interesting output is the simulated-time
// custom metrics (sim-us/..., speedup-at-N), which are the quantities the
// paper reports. Run with:
//
//	go test -bench=. -benchmem
//
// Paper-scale problem sizes are exercised by the CLI (see EXPERIMENTS.md);
// the benchmarks use the scaled defaults so the whole suite finishes in
// minutes.
package repro

import (
	"testing"

	"repro/internal/experiments"
)

// timeOf returns the seconds per episode of algo at procs processors, or
// false.
func timeOf(r experiments.BarriersResult, algo string, procs int) (float64, bool) {
	for i, a := range r.Algos {
		for j, p := range r.Procs {
			if a == algo && p == procs {
				return r.Times[i][j], true
			}
		}
	}
	return 0, false
}

// speedupAt returns the speedup at procs processors, or false.
func speedupAt(r experiments.KernelTableResult, procs int) (float64, bool) {
	for _, row := range r.Rows {
		if row.Procs == procs {
			return row.Speedup, true
		}
	}
	return 0, false
}

// BenchmarkFig2Latency regenerates Figure 2 (read/write latencies per
// hierarchy level vs processor count).
func BenchmarkFig2Latency(b *testing.B) {
	cfg := experiments.DefaultLatencyConfig()
	cfg.RegionBytes = 128 * 1024
	cfg.Procs = []int{1, 8, 16, 24, 32}
	var res experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunLatency(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.NetRead[0], "sim-us/net-read-P1")
	b.ReportMetric(res.NetRead[len(res.NetRead)-1], "sim-us/net-read-P32")
	b.ReportMetric(res.LocalRead[0], "sim-us/local-read")
	b.ReportMetric(res.SubCacheRead, "sim-us/subcache-read")
}

// BenchmarkAllocOverhead regenerates the Section 3.1 allocation-unit
// overhead measurements (paper: +50% block, +60% page).
func BenchmarkAllocOverhead(b *testing.B) {
	var res experiments.AllocOverheadResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAlloc(experiments.DefaultAllocConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LocalRatio, "x-block-alloc")
	b.ReportMetric(res.RemoteRatio, "x-page-alloc")
}

// BenchmarkFig3Locks regenerates Figure 3 (hardware exclusive lock vs the
// software read-write ticket lock across read-share fractions).
func BenchmarkFig3Locks(b *testing.B) {
	cfg := experiments.DefaultLocksConfig()
	cfg.OpsPerProc = 40
	cfg.Procs = []int{1, 8, 16, 24, 30}
	var res experiments.LocksResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunLocks(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(res.Procs) - 1
	b.ReportMetric(res.Exclusive[last], "sim-s/exclusive-P30")
	b.ReportMetric(res.Shared[len(res.ReadFrac)-1][last], "sim-s/readers-P30")
}

// BenchmarkFig4Barriers regenerates Figure 4 (nine barrier algorithms on
// the 32-node KSR-1), with one sub-benchmark per algorithm.
func BenchmarkFig4Barriers(b *testing.B) {
	for _, algo := range []string{
		"system", "counter", "tree", "tree(M)", "dissemination",
		"tournament", "tournament(M)", "mcs", "mcs(M)",
	} {
		b.Run(algo, func(b *testing.B) {
			cfg := experiments.DefaultBarriersConfig()
			cfg.Episodes = 40
			cfg.Procs = []int{2, 8, 16, 32}
			cfg.Algorithms = []string{algo}
			var res experiments.BarriersResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.RunBarriers(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			v, _ := timeOf(res, algo, 32)
			b.ReportMetric(v*1e6, "sim-us/episode-P32")
		})
	}
}

// BenchmarkFig5BarriersKSR2 regenerates Figure 5 (the same barriers on a
// 64-node two-level-ring KSR-2), reporting the level-1-ring jump.
func BenchmarkFig5BarriersKSR2(b *testing.B) {
	cfg := experiments.KSR2BarriersConfig()
	cfg.Episodes = 30
	cfg.Procs = []int{16, 32, 40, 64}
	cfg.Algorithms = []string{"tournament(M)", "mcs(M)", "dissemination", "tree(M)"}
	var res experiments.BarriersResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunBarriers(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	tm32, _ := timeOf(res, "tournament(M)", 32)
	tm64, _ := timeOf(res, "tournament(M)", 64)
	b.ReportMetric(tm32*1e6, "sim-us/tournamentM-P32")
	b.ReportMetric(tm64*1e6, "sim-us/tournamentM-P64")
}

// BenchmarkCompareFabrics regenerates the Section 3.2.3 cross-architecture
// comparison (Symmetry bus, Butterfly MIN).
func BenchmarkCompareFabrics(b *testing.B) {
	var res experiments.CompareResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunComparison(experiments.CompareConfig{Cells: 16, Episodes: 25, Procs: []int{4, 8, 16}})
		if err != nil {
			b.Fatal(err)
		}
	}
	d, _ := timeOf(res.Butterfly, "dissemination", 16)
	c, _ := timeOf(res.Butterfly, "counter", 16)
	b.ReportMetric(d*1e6, "sim-us/butterfly-dissemination")
	b.ReportMetric(c*1e6, "sim-us/butterfly-counter")
}

// BenchmarkEP regenerates the EP scalability result (linear speedup,
// ~11 MFLOPS per processor).
func BenchmarkEP(b *testing.B) {
	cfg := experiments.DefaultEPExperiment()
	cfg.LogPairs = 16
	cfg.Procs = []int{1, 8, 32}
	var res experiments.EPExperimentResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunEPExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !res.Verified {
		b.Fatal("EP results differ across processor counts")
	}
	b.ReportMetric(res.Rows[len(res.Rows)-1].Speedup, "speedup-P32")
	b.ReportMetric(res.MFLOPSAtOne, "MFLOPS-P1")
}

// BenchmarkTable1CG regenerates Table 1 (CG time/speedup/efficiency/serial
// fraction) and the CG half of Figure 8.
func BenchmarkTable1CG(b *testing.B) {
	cfg := experiments.DefaultCGExperiment()
	cfg.Procs = []int{1, 2, 4, 8, 16, 32}
	var res experiments.KernelTableResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunCGExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !res.Verified {
		b.Fatal("CG answers differ across processor counts")
	}
	s16, _ := speedupAt(res, 16)
	s32, _ := speedupAt(res, 32)
	b.ReportMetric(s16, "speedup-P16")
	b.ReportMetric(s32, "speedup-P32")
}

// BenchmarkCGPoststore regenerates the Section 3.3.1 poststore ablation
// (paper: ~3% gain at 16 processors, fading toward 32).
func BenchmarkCGPoststore(b *testing.B) {
	cfg := experiments.DefaultCGExperiment()
	cfg.Procs = []int{16, 32}
	var res experiments.CGPoststoreResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunCGPoststoreAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Improvement[0], "pct-gain-P16")
	b.ReportMetric(res.Improvement[1], "pct-gain-P32")
}

// BenchmarkTable2IS regenerates Table 2 (IS) and the IS half of Figure 8.
func BenchmarkTable2IS(b *testing.B) {
	cfg := experiments.DefaultISExperiment()
	cfg.Procs = []int{1, 2, 8, 16, 30, 32}
	var res experiments.KernelTableResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunISExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !res.Verified {
		b.Fatal("IS failed to sort")
	}
	s30, _ := speedupAt(res, 30)
	s32, _ := speedupAt(res, 32)
	b.ReportMetric(s30, "speedup-P30")
	b.ReportMetric(s32, "speedup-P32")
}

// BenchmarkTable3SP regenerates Table 3 (SP time per iteration).
func BenchmarkTable3SP(b *testing.B) {
	cfg := experiments.DefaultSPExperiment()
	cfg.Procs = []int{1, 4, 16, 31}
	var res experiments.SPTableResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSPExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !res.Verified {
		b.Fatal("SP answer differs from serial reference")
	}
	b.ReportMetric(res.Rows[len(res.Rows)-1].Speedup, "speedup-P31")
}

// BenchmarkTable4SPOpts regenerates Table 4 (the SP optimization ladder
// plus the poststore ablation).
func BenchmarkTable4SPOpts(b *testing.B) {
	cfg := experiments.DefaultSPOptsConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 64, 64, 16 // plane size that aliases the sub-cache
	cfg.Iterations, cfg.OptProcs = 1, 16
	var res experiments.SPOptsResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSPOpts(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Base*1e3, "sim-ms/base")
	b.ReportMetric(res.Padded*1e3, "sim-ms/padded")
	b.ReportMetric(res.Prefetch*1e3, "sim-ms/prefetch")
	b.ReportMetric(res.Poststore*1e3, "sim-ms/poststore")
}
