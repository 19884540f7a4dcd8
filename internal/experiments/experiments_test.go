package experiments

import (
	"strings"
	"testing"
)

// timeOf returns the seconds per episode of algo at procs processors, or
// false.
func timeOf(r BarriersResult, algo string, procs int) (float64, bool) {
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
func speedupAt(r KernelTableResult, procs int) (float64, bool) {
	for _, row := range r.Rows {
		if row.Procs == procs {
			return row.Speedup, true
		}
	}
	return 0, false
}

func TestNewMachineKinds(t *testing.T) {
	for _, k := range []MachineKind{KSR1Kind, KSR2Kind, SymmetryKind, ButterflyKind} {
		m, err := NewMachine(k, 4)
		if err != nil || m == nil {
			t.Errorf("NewMachine(%s): %v", k, err)
		}
	}
	if _, err := NewMachine("cray", 4); err == nil {
		t.Error("unknown machine kind accepted")
	}
}

func TestDefaultProcSweep(t *testing.T) {
	s := DefaultProcSweep(32)
	if s[0] != 1 || s[len(s)-1] != 32 {
		t.Errorf("sweep for 32 cells = %v", s)
	}
	for _, p := range s {
		if p > 32 {
			t.Errorf("sweep exceeds cells: %v", s)
		}
	}
}

func TestLatencyShape(t *testing.T) {
	cfg := DefaultLatencyConfig()
	cfg.RegionBytes = 64 * 1024
	cfg.Procs = []int{1, 8, 24, 32}
	res, err := RunLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sub-cache latency: published 2 cycles = 0.1 us.
	if res.SubCacheRead < 0.09 || res.SubCacheRead > 0.12 {
		t.Errorf("sub-cache read = %.4f us, want ~0.1", res.SubCacheRead)
	}
	// Local-cache latency is flat in P and near 18 cycles = 0.9 us.
	for i, v := range res.LocalRead {
		if v < 0.85 || v > 1.6 {
			t.Errorf("local read at P=%d is %.3f us, want ~0.9-1.6", res.Procs[i], v)
		}
	}
	// Writes cost slightly more than reads at every point.
	for i := range res.Procs {
		if res.LocalWrite[i] <= res.LocalRead[i] {
			t.Errorf("P=%d: local write %.3f <= read %.3f", res.Procs[i], res.LocalWrite[i], res.LocalRead[i])
		}
		if res.NetWrite[i] <= res.NetRead[i] {
			t.Errorf("P=%d: net write %.3f <= read %.3f", res.Procs[i], res.NetWrite[i], res.NetRead[i])
		}
	}
	// Network latency near the published 175 cycles (8.75 us) plus fill,
	// roughly flat until the ring nears capacity, with a modest rise at 32
	// (paper: ~8%).
	base := res.NetRead[0]
	if base < 8.75 || base > 11 {
		t.Errorf("unloaded net read = %.3f us, want ~9-11 (175 cycles + fill)", base)
	}
	rise := res.NetRead[len(res.NetRead)-1] / base
	if rise < 1.01 || rise > 1.4 {
		t.Errorf("net read rise at 32 procs = %.2fx, want a modest rise (paper ~8%%)", rise)
	}
	// The rise must come from the full ring, not mid-range contention.
	mid := res.NetRead[1] / base
	if mid > 1.05 {
		t.Errorf("net read already %.2fx at 8 procs — slots should absorb this", mid)
	}
	if !strings.Contains(res.String(), "Figure 2") {
		t.Error("result misses figure title")
	}
}

func TestAllocOverheadRatios(t *testing.T) {
	res, err := RunAlloc(DefaultAllocConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: +50% for block allocation, +60% for page allocation.
	if res.LocalRatio < 1.3 || res.LocalRatio > 1.7 {
		t.Errorf("block-allocation ratio = %.2f, want ~1.5", res.LocalRatio)
	}
	if res.RemoteRatio < 1.4 || res.RemoteRatio > 1.8 {
		t.Errorf("page-allocation ratio = %.2f, want ~1.6", res.RemoteRatio)
	}
	if !strings.Contains(res.String(), "Allocation overheads") {
		t.Error("String() missing title")
	}
}

func TestLocksShape(t *testing.T) {
	cfg := DefaultLocksConfig()
	cfg.OpsPerProc = 12
	cfg.Procs = []int{1, 8, 16}
	cfg.ReadFractions = []int{0, 60, 100}
	res, err := RunLocks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hardware exclusive lock time grows with P (serialized holds).
	if !(res.Exclusive[0] < res.Exclusive[1] && res.Exclusive[1] < res.Exclusive[2]) {
		t.Errorf("exclusive lock times not increasing: %v", res.Exclusive)
	}
	// At high P, more read sharing means faster completion.
	last := len(res.Procs) - 1
	if !(res.Shared[2][last] < res.Shared[1][last] && res.Shared[1][last] < res.Shared[0][last]) {
		t.Errorf("read-share ordering wrong at 16 procs: 0%%=%v 60%%=%v 100%%=%v",
			res.Shared[0][last], res.Shared[1][last], res.Shared[2][last])
	}
	// Readers-only software lock beats the hardware exclusive lock.
	if res.Shared[2][last] >= res.Exclusive[last] {
		t.Errorf("readers-only rw lock (%v) not faster than hw exclusive (%v)",
			res.Shared[2][last], res.Exclusive[last])
	}
	if !strings.Contains(res.String(), "Figure 3") {
		t.Error("result misses figure title")
	}
}

func TestBarriersKSR1Shape(t *testing.T) {
	cfg := DefaultBarriersConfig()
	cfg.Episodes = 12
	cfg.Procs = []int{8, 16, 32}
	res, err := RunBarriers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at32 := func(name string) float64 {
		v, ok := timeOf(res, name, 32)
		if !ok {
			t.Fatalf("missing %s at 32", name)
		}
		return v
	}
	// Figure 4 ordering at 32 processors.
	counter := at32("counter")
	tree := at32("tree")
	treeM := at32("tree(M)")
	tournament := at32("tournament")
	tournamentM := at32("tournament(M)")
	system := at32("system")
	if tournamentM >= counter {
		t.Errorf("tournament(M) %.2g not better than counter %.2g", tournamentM, counter)
	}
	if tree >= counter {
		t.Errorf("tree %.2g not better than counter %.2g", tree, counter)
	}
	if treeM >= tree {
		t.Errorf("tree(M) %.2g not better than tree %.2g", treeM, tree)
	}
	if tournamentM >= tournament {
		t.Errorf("tournament(M) %.2g not better than tournament %.2g", tournamentM, tournament)
	}
	// The paper's winner: tournament(M) is the best (mcs(M) close).
	if best := res.Best(); best != "tournament(M)" && best != "mcs(M)" {
		t.Errorf("best barrier at 32 procs = %s, want tournament(M) (or mcs(M) close)", best)
	}
	// System tracks tree(M).
	ratio := system / treeM
	if ratio < 0.7 || ratio > 1.8 {
		t.Errorf("system/tree(M) ratio = %.2f, want near 1", ratio)
	}
	// tournament(M) is nearly flat: 32-proc time within 3x of 8-proc.
	tm8, _ := timeOf(res, "tournament(M)", 8)
	if tournamentM > 3*tm8 {
		t.Errorf("tournament(M) not flat: %.2g at 8 vs %.2g at 32", tm8, tournamentM)
	}
}

func TestBarriersKSR2TwoLevelJump(t *testing.T) {
	cfg := KSR2BarriersConfig()
	cfg.Episodes = 8
	cfg.Procs = []int{16, 32, 40, 64}
	cfg.Algorithms = []string{"tournament(M)", "mcs(M)", "dissemination"}
	res, err := RunBarriers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Crossing the 32-processor boundary (second-level ring) must cost a
	// visible jump for every algorithm. The bar is lower for the flattest
	// algorithm (tournament(M)) whose critical path exposes only a couple
	// of cross-ring transactions.
	for i, a := range res.Algos {
		at32 := res.Times[i][1]
		at40 := res.Times[i][2]
		min := 1.2
		if a == "tournament(M)" {
			min = 1.08
		}
		if at40 < at32*min {
			t.Errorf("%s: no two-level-ring jump: %.3g at 32 vs %.3g at 40", a, at32, at40)
		}
	}
	if !strings.Contains(res.String(), "KSR2") {
		t.Error("title missing machine")
	}
}

func TestCompareArchitectures(t *testing.T) {
	res, err := RunComparison(CompareConfig{Cells: 16, Episodes: 6, Procs: []int{4, 16}})
	if err != nil {
		t.Fatal(err)
	}
	// On the Butterfly (parallel paths, no caches): dissemination beats
	// the counter badly, and beats MCS (fewest rounds wins).
	dis, _ := timeOf(res.Butterfly, "dissemination", 16)
	ctr, _ := timeOf(res.Butterfly, "counter", 16)
	mcs, _ := timeOf(res.Butterfly, "mcs", 16)
	if dis >= ctr {
		t.Errorf("butterfly: dissemination %.3g not better than counter %.3g", dis, ctr)
	}
	if dis >= mcs {
		t.Errorf("butterfly: dissemination %.3g not better than mcs %.3g", dis, mcs)
	}
	// On the Symmetry (one bus): dissemination's O(P log P) messages are
	// all serialized, so it loses its advantage over the counter.
	disS, _ := timeOf(res.Symmetry, "dissemination", 16)
	ctrS, _ := timeOf(res.Symmetry, "counter", 16)
	if disS < ctrS/2 {
		t.Errorf("symmetry: dissemination %.3g should not dominate counter %.3g on a bus", disS, ctrS)
	}
}

func TestEPExperiment(t *testing.T) {
	cfg := DefaultEPExperiment()
	cfg.LogPairs = 13
	cfg.Procs = []int{1, 4, 16}
	res, err := RunEPExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("EP results differ across processor counts")
	}
	if res.Rows[2].Speedup < 13 {
		t.Errorf("EP speedup at 16 = %.2f, want near-linear", res.Rows[2].Speedup)
	}
}

func TestCGExperimentShape(t *testing.T) {
	cfg := DefaultCGExperiment()
	cfg.N, cfg.NNZ, cfg.Iterations = 700, 10000, 6
	cfg.Procs = []int{1, 4, 16, 32}
	res, err := RunCGExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("CG answers differ across processor counts")
	}
	s16, _ := speedupAt(res, 16)
	s32, _ := speedupAt(res, 32)
	if s16 < 6 {
		t.Errorf("CG speedup at 16 = %.2f, want good scaling", s16)
	}
	// Efficiency drops from 16 to 32 (paper: serial-section remote
	// references): speedup gain is sublinear.
	if s32 > 1.9*s16 {
		t.Errorf("CG speedup doubled from 16 (%.2f) to 32 (%.2f) — expected a drop-off", s16, s32)
	}
}

func TestISExperimentShape(t *testing.T) {
	cfg := DefaultISExperiment()
	cfg.LogKeys, cfg.LogMaxKey = 14, 9
	cfg.Procs = []int{1, 2, 8, 32}
	res, err := RunISExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("IS failed to sort at some processor count")
	}
	rows := res.Rows
	// Efficiency decays with P (Table 2: 0.99 at 2 down to 0.59 at 32).
	if rows[1].Efficiency < 0.8 {
		t.Errorf("IS efficiency at 2 procs = %.2f, want high", rows[1].Efficiency)
	}
	last := rows[len(rows)-1]
	if last.Efficiency >= rows[1].Efficiency {
		t.Errorf("IS efficiency did not decay: %.2f at 2 vs %.2f at 32",
			rows[1].Efficiency, last.Efficiency)
	}
	// Serial fraction grows with P.
	if last.SerialFraction <= rows[1].SerialFraction {
		t.Errorf("IS serial fraction did not grow: %v vs %v",
			rows[1].SerialFraction, last.SerialFraction)
	}
}

func TestSPExperimentShape(t *testing.T) {
	cfg := DefaultSPExperiment()
	cfg.Nx, cfg.Ny, cfg.Nz, cfg.Iterations = 32, 32, 32, 1
	cfg.Procs = []int{1, 4, 8, 16}
	res, err := RunSPExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("SP answer differs from serial reference")
	}
	if res.Rows[3].Speedup < 11 {
		t.Errorf("SP speedup at 16 = %.2f, want strong scaling (paper: 15.3)", res.Rows[3].Speedup)
	}
}

func TestSPOptimizationLadder(t *testing.T) {
	cfg := DefaultSPExperiment()
	cfg.Nx, cfg.Ny, cfg.Nz, cfg.Iterations = 64, 64, 16, 1
	res, err := RunSPOpts(SPOptsConfig{SPExperimentConfig: cfg, OptProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Table 4 ladder: each optimization helps, poststore hurts.
	if res.Padded >= res.Base {
		t.Errorf("padding did not help: base %.4f, padded %.4f", res.Base, res.Padded)
	}
	if res.Prefetch >= res.Padded {
		t.Errorf("prefetch did not help: padded %.4f, prefetch %.4f", res.Padded, res.Prefetch)
	}
	if res.Poststore <= res.Prefetch {
		t.Errorf("poststore did not hurt: prefetch %.4f, poststore %.4f", res.Prefetch, res.Poststore)
	}
	if !strings.Contains(res.String(), "Table 4") {
		t.Error("String() missing title")
	}
}

// TestMalformedConfigsReturnErrors runs each config that used to panic
// inside a sweep worker through the registry, as the daemon does: every
// one must come back as an error naming the bad field.
func TestMalformedConfigsReturnErrors(t *testing.T) {
	for _, tc := range []struct {
		experiment, config, want string
	}{
		{"locks", `{"OpsPerProc":-1}`, "OpsPerProc"},
		{"locks", `{"Procs":[-2]}`, "processor counts"},
		{"saturation", `{"Accesses":0}`, "Accesses"},
		{"saturation", `{"Accesses":-5}`, "Accesses"},
		{"capacity", `{"TotalBytes":0}`, "TotalBytes"},
		{"capacity", `{"TotalBytes":-1}`, "TotalBytes"},
		{"capacity", `{"Procs":[0]}`, "processor counts"},
		{"sp", `{"Nx":0}`, "bad SP config"},
		{"bt", `{"Nx":2}`, "bad BT config"},
		{"bt", `{"Nz":1}`, "bad BT config"},
	} {
		r, ok := LookupExperiment(tc.experiment)
		if !ok {
			t.Fatalf("no experiment %q", tc.experiment)
		}
		cfg, err := r.DecodeConfig([]byte(tc.config))
		if err != nil {
			t.Fatalf("%s %s: decode: %v", tc.experiment, tc.config, err)
		}
		if _, err := r.Run(nil, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: err = %v, want an error mentioning %q", tc.experiment, tc.config, err, tc.want)
		}
	}
}
