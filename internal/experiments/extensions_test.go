package experiments

import (
	"strings"
	"testing"
)

func TestQueueLocksExperiment(t *testing.T) {
	cfg := DefaultQueueLocksConfig()
	cfg.Procs = []int{1, 8}
	cfg.OpsPerProc = 6
	res, err := RunQueueLocks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Locks) != 3 || len(res.Times[0]) != 2 {
		t.Fatalf("result shape wrong: %+v", res)
	}
	// At 8 procs, queue locks generate less fabric traffic than the
	// hardware lock's retry storm.
	if res.Txns[1][1] >= res.Txns[0][1] {
		t.Errorf("anderson txns %d >= hw txns %d", res.Txns[1][1], res.Txns[0][1])
	}
	if res.Txns[2][1] >= res.Txns[0][1] {
		t.Errorf("mcs txns %d >= hw txns %d", res.Txns[2][1], res.Txns[0][1])
	}
	if len(res.String()) == 0 {
		t.Error("empty rendering")
	}
}

func TestSaturationSweepShape(t *testing.T) {
	cfg := DefaultSaturationConfig()
	cfg.Accesses = 150
	cfg.GapCycles = []int64{2000, 250, 0}
	res, err := RunSaturation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Light load: latency near the unloaded 9.7us, negligible slot wait.
	light := res.Points[0]
	if light.MeanUs < 9 || light.MeanUs > 11 {
		t.Errorf("light-load latency = %.2f us, want ~9.7", light.MeanUs)
	}
	// Saturated: latency clearly above unloaded, real slot waits, and
	// throughput capped near the slot bound (24 slots / 8.1us rotation
	// ~ 2.96M tx/s).
	sat := res.Points[len(res.Points)-1]
	// With synchronous (one-outstanding) requesters the equilibrium
	// latency is bounded by P*hold/slots = 1.33x unloaded; ~1.1x observed.
	if sat.MeanUs < light.MeanUs*1.08 {
		t.Errorf("saturated latency %.2f not clearly above light %.2f", sat.MeanUs, light.MeanUs)
	}
	if sat.SlotWaitUs <= 0.1 {
		t.Errorf("no slot queueing at saturation: %+v", sat)
	}
	if sat.Throughput > 3.1e6 {
		t.Errorf("throughput %.3g exceeds the slot bound", sat.Throughput)
	}
	if sat.Throughput < 2.0e6 {
		t.Errorf("saturated throughput %.3g too far below the slot bound", sat.Throughput)
	}
	// Monotonic: pushing load never increases achieved latency headroom.
	if res.Points[1].MeanUs < light.MeanUs-0.2 {
		t.Errorf("latency fell with load: %+v", res.Points)
	}
}

func TestBTExperiment(t *testing.T) {
	cfg := DefaultBTExperiment()
	cfg.Nx, cfg.Ny, cfg.Nz = 12, 12, 12
	cfg.Procs = []int{1, 4}
	res, err := RunBTExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("BT answer differs from the serial reference")
	}
	if res.Rows[1].Speedup < 3 {
		t.Errorf("BT speedup at 4 procs = %.2f, want > 3", res.Rows[1].Speedup)
	}
	if !strings.Contains(res.String(), "Block Tridiagonal") {
		t.Error("title missing")
	}
}

func TestCGPoststoreAblationRuns(t *testing.T) {
	cfg := DefaultCGExperiment()
	cfg.N, cfg.NNZ, cfg.Iterations = 400, 4000, 4
	cfg.Procs = []int{8}
	res, err := RunCGPoststoreAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Procs) != 1 || res.Procs[0] != 8 || len(res.Improvement) != 1 {
		t.Fatalf("want one entry for 8 procs: %+v", res)
	}
	// Poststore should help (positive percentage) at moderate scale.
	if imp := res.Improvement[0]; imp < 0 {
		t.Logf("poststore hurt by %.2f%% at this scale (acceptable, logged)", -imp)
	}
	if !strings.Contains(res.String(), "   8 procs: ") {
		t.Errorf("rendering lost the 8-proc line:\n%s", res)
	}
	cfg.Poststore = true
	if _, err := RunCGPoststoreAblation(cfg); err == nil {
		t.Error("ablation accepted Poststore: true, the knob it ablates")
	}
}

func TestFigure8AndStringRenderings(t *testing.T) {
	cgCfg := DefaultCGExperiment()
	cgCfg.N, cgCfg.NNZ, cgCfg.Iterations = 400, 4000, 3
	cgCfg.Procs = []int{1, 4}
	cg, err := RunCGExperiment(cgCfg)
	if err != nil {
		t.Fatal(err)
	}
	isCfg := DefaultISExperiment()
	isCfg.LogKeys, isCfg.LogMaxKey = 12, 8
	isCfg.Procs = []int{1, 4}
	is, err := RunISExperiment(isCfg)
	if err != nil {
		t.Fatal(err)
	}
	fig := Figure8(cg, is)
	for _, want := range []string{"Figure 8", "CG", "IS"} {
		if !strings.Contains(fig, want) {
			t.Errorf("Figure8 missing %q:\n%s", want, fig)
		}
	}
	if !strings.Contains(cg.String(), "Conjugate Gradient") {
		t.Error("CG table title missing")
	}
	if !strings.Contains(is.String(), "Integer Sort") {
		t.Error("IS table title missing")
	}
	bres := BarriersResult{Title: "T", Procs: []int{2}, Algos: []string{"a"}, Times: [][]float64{{1}}}
	if !strings.Contains(bres.String(), "T") {
		t.Error("barrier rendering broken")
	}
	sres := SaturationResult{Procs: 4, Points: []SaturationPoint{{GapCycles: 10, MeanUs: 9.7}}}
	if !strings.Contains(sres.String(), "saturation") {
		t.Error("saturation rendering broken")
	}
}

func TestLocksWithInterruptsCrossover(t *testing.T) {
	// The paper's surprising result — software read-write lock beating the
	// hardware lock even with writers only — appears once OS timer
	// interrupts are modelled.
	cfg := DefaultLocksConfig()
	cfg.OpsPerProc = 15
	cfg.Procs = []int{16}
	cfg.ReadFractions = []int{0}
	cfg.TimerInterrupts = true
	res, err := RunLocks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shared[0][0] >= res.Exclusive[0] {
		t.Errorf("with interrupts, rw-writers-only (%v) should beat hw (%v)",
			res.Shared[0][0], res.Exclusive[0])
	}
}

func TestCapacityEffectSuperunitary(t *testing.T) {
	cfg := DefaultCapacityConfig()
	res, err := RunCapacityEffect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Superunitary {
		t.Errorf("no superunitary stretch: %+v", res.Rows)
	}
	// Evictions vanish once the per-processor share fits the 32 MB cache.
	first, last := res.Evictions[0], res.Evictions[len(res.Evictions)-1]
	if first == 0 {
		t.Error("P=1 run did not overflow the local cache")
	}
	if last != 0 {
		t.Errorf("P=%d still evicting (%d)", cfg.Procs[len(cfg.Procs)-1], last)
	}
	if !strings.Contains(res.String(), "superunitary") {
		t.Error("rendering broken")
	}
}

func TestLatencyOnKSR2HalvesNodeSideOnly(t *testing.T) {
	cfg := DefaultLatencyConfig()
	cfg.Machine = KSR2Kind
	cfg.Cells = 64
	cfg.RegionBytes = 32 * 1024
	cfg.Procs = []int{1}
	res, err := RunLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node-side latencies halve with the 25 ns cycle...
	if res.SubCacheRead < 0.045 || res.SubCacheRead > 0.06 {
		t.Errorf("KSR-2 sub-cache read = %.4f us, want ~0.05", res.SubCacheRead)
	}
	if res.LocalRead[0] < 0.4 || res.LocalRead[0] > 0.8 {
		t.Errorf("KSR-2 local read = %.3f us, want ~0.45-0.8", res.LocalRead[0])
	}
	// ...but the ring transit does not.
	if res.NetRead[0] < 8.75 || res.NetRead[0] > 10.5 {
		t.Errorf("KSR-2 net read = %.3f us, want ~9.2 (ring unchanged)", res.NetRead[0])
	}
}

func TestQueueLocksOnButterflySkipsHWLock(t *testing.T) {
	cfg := DefaultQueueLocksConfig()
	cfg.Machine = ButterflyKind
	cfg.Cells = 8
	cfg.Procs = []int{4}
	cfg.OpsPerProc = 4
	res, err := RunQueueLocks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Times[0][0] != 0 {
		t.Error("hardware lock should be skipped on the butterfly (no gsp)")
	}
	if res.Times[1][0] == 0 || res.Times[2][0] == 0 {
		t.Error("queue locks should run on the butterfly")
	}
}
