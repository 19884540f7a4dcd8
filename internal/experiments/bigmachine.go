package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// partitions is the PDES worker count for big-machine experiments;
// 1 = sequential windows. Like parallelism it is process-global CLI
// state, not part of any experiment config: the result is byte-identical
// at every setting, so it must not reach the daemon's cache keys.
var partitions int64 = 1

// SetPartitions sets how many OS threads drive a big machine's ring
// partitions inside each barrier window. n <= 0 selects GOMAXPROCS. The
// default is 1 (sequential). It returns the value actually set.
func SetPartitions(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	atomic.StoreInt64(&partitions, int64(n))
	return n
}

// Partitions returns the current PDES worker count.
func Partitions() int { return int(atomic.LoadInt64(&partitions)) }

// ConfigForBig returns the named machine model's big (multi-ring)
// configuration: the same calibration with the ARD crossing cost made
// explicit. Only the KSR kinds scale past one ring.
func ConfigForBig(kind MachineKind, cells int) (machine.Config, error) {
	switch kind {
	case KSR1Kind:
		return machine.KSR1Big(cells), nil
	case KSR2Kind:
		return machine.KSR2Big(cells), nil
	default:
		return machine.Config{}, fmt.Errorf("experiments: machine kind %q has no multi-ring variant (want ksr1 or ksr2)", kind)
	}
}

// newBigMachine validates and builds a big machine with the current
// PDES worker count applied. Big machines run unobserved (tracing
// assumes one engine), but the sweep around them still reports progress
// through the usual session hooks; when a profiling session is
// installed, each ring gets its own recorder under label.
func newBigMachine(kind MachineKind, cells int, label string) (*machine.BigMachine, error) {
	cfg, err := ConfigForBig(kind, cells)
	if err != nil {
		return nil, err
	}
	b, err := machine.NewBig(cfg)
	if err != nil {
		return nil, err
	}
	b.Coordinator().SetWorkers(Partitions())
	b.AttachProf(ProfSession(), label)
	return b, nil
}

// pdesRecord converts the coordinator's accounting into its manifest
// form under the given label.
func pdesRecord(label string, st sim.PartitionedStats) obs.PDESRecord {
	rec := obs.PDESRecord{
		Label:       label,
		Windows:     st.Windows,
		Messages:    st.Messages,
		LookaheadNs: st.Lookahead.Ns(),
	}
	for _, p := range st.Partitions {
		rec.Partitions = append(rec.Partitions, obs.PDESPartition{
			Events:           p.Events,
			ActiveWindows:    p.ActiveWindows,
			StragglerWindows: p.StragglerWindows,
			IdleNs:           p.IdleTime.Ns(),
			Sent:             p.Sent,
			Recv:             p.Recv,
			LookaheadLimited: p.LookaheadLimited,
		})
	}
	return rec
}

// BigEPConfig parameterizes the extended-study EP sweep past one ring:
// processor counts up to the full 1088-cell KSR-2.
type BigEPConfig struct {
	Machine  MachineKind `help:"machine model: ksr1 | ksr2"`
	Procs    []int       `help:"comma-separated total processor counts (multiples of 32 past one ring)"` // rings = ceil(procs/32)
	LogPairs int         `help:"generate 2^logpairs pairs (paper scale: 28)"`

	observed
}

// DefaultBigEPExperiment returns the thousand-cell EP sweep.
func DefaultBigEPExperiment() BigEPConfig {
	return BigEPConfig{
		Machine:  KSR2Kind,
		Procs:    []int{32, 64, 128, 256, 544, 1088},
		LogPairs: 20,
	}
}

// BigScaleResult is the extended EP table plus the hierarchy's own
// observables per point.
type BigScaleResult struct {
	Rows         []metrics.Row
	Cross        []uint64  // cross-ring transactions per point
	BytesPerCell []float64 // committed simulator state per simulated cell
	Verified     bool      // per-P statistics identical
}

// String renders the table.
func (r BigScaleResult) String() string {
	var b strings.Builder
	b.WriteString(metrics.Table("EP on the two-level ring (extension, to 1088 cells)", r.Rows))
	for i, row := range r.Rows {
		fmt.Fprintf(&b, "  p=%-5d cross-ring tx=%-6d simulator bytes/cell=%.0f\n",
			row.Procs, r.Cross[i], r.BytesPerCell[i])
	}
	return b.String()
}

// RunBigEPExperiment sweeps hierarchical EP over total processor counts.
// Every point draws the same 2^LogPairs pairs by global jump-ahead, so
// the accepted counts and annuli must agree across the whole sweep —
// that is the Verified bit.
func RunBigEPExperiment(cfg BigEPConfig) (BigScaleResult, error) {
	if err := checkProcs(cfg.Procs); err != nil {
		return BigScaleResult{}, err
	}
	res := BigScaleResult{Verified: true}
	n := len(cfg.Procs)
	points := make([]metrics.Point, n)
	outs := make([]kernels.BigEPResult, n)
	err := forEachObs(cfg.Obs, n, func(i int) error {
		procs := cfg.Procs[i]
		rings := (procs + machine.RingLeafSize - 1) / machine.RingLeafSize
		if procs%rings != 0 {
			return fmt.Errorf("experiments: %d processors do not spread evenly over %d rings", procs, rings)
		}
		label := fmt.Sprintf("bigep/p=%d", procs)
		b, err := newBigMachine(cfg.Machine, rings*machine.RingLeafSize, label)
		if err != nil {
			return err
		}
		defer b.Close()
		kcfg := kernels.DefaultBigEPConfig(procs / rings)
		kcfg.LogPairs = cfg.LogPairs
		out, err := kernels.RunBigEP(b, kcfg)
		if err != nil {
			return err
		}
		sessionOr(cfg.Obs).RecordPDES(pdesRecord(label, b.Coordinator().Stats()))
		outs[i] = out
		points[i] = metrics.Point{Procs: procs, Elapsed: out.Elapsed}
		return nil
	})
	if err != nil {
		return res, err
	}
	for i, out := range outs {
		if i > 0 && (out.Annuli != outs[0].Annuli || out.Accepted != outs[0].Accepted) {
			res.Verified = false
		}
		res.Cross = append(res.Cross, out.CrossTransactions)
		res.BytesPerCell = append(res.BytesPerCell, out.BytesPerCell)
	}
	res.Rows = metrics.BuildRows(points)
	return res, nil
}

// BigLatencyConfig parameterizes the cross-ring latency probe: one
// processor on ring 0 fetches from a spread of target rings on a big
// machine, measuring the leaf-top-leaf path against the intra-ring
// baseline — the extension of Figure 2 past one ring.
type BigLatencyConfig struct {
	Machine MachineKind `help:"machine model: ksr1 | ksr2"`
	Rings   int         `help:"leaf rings (34 = the full 1088-cell machine)"`

	observed
}

// DefaultBigLatencyExperiment probes the full-size KSR-2.
func DefaultBigLatencyExperiment() BigLatencyConfig {
	return BigLatencyConfig{Machine: KSR2Kind, Rings: 34}
}

// BigLatencyRow is one probed target ring.
type BigLatencyRow struct {
	TargetRing int
	Latency    sim.Time
	Ratio      float64 // vs the intra-ring unloaded latency
}

// BigLatencyResult is the cross-ring latency table.
type BigLatencyResult struct {
	Intra sim.Time // unloaded intra-ring (leaf) transaction latency
	Rows  []BigLatencyRow
}

// String renders the table.
func (r BigLatencyResult) String() string {
	var b strings.Builder
	b.WriteString("Cross-ring latency (extension of Figure 2 past one ring)\n")
	fmt.Fprintf(&b, "  %-16s %14s %8s\n", "target", "latency", "x intra")
	fmt.Fprintf(&b, "  %-16s %14v %8.2f\n", "same ring", r.Intra, 1.0)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-16s %14v %8.2f\n",
			fmt.Sprintf("ring %d", row.TargetRing), row.Latency, row.Ratio)
	}
	return b.String()
}

// RunBigLatency measures unloaded cross-ring fetch latency from ring 0
// to a spread of target rings. On the slotted ring the position of the
// target ring does not change the unloaded path (one rotation per ring
// plus the ARD crossings), so the rows double as a flatness check.
func RunBigLatency(cfg BigLatencyConfig) (BigLatencyResult, error) {
	var res BigLatencyResult
	if cfg.Rings < 2 {
		return res, fmt.Errorf("experiments: the cross-ring probe needs at least 2 rings (got %d)", cfg.Rings)
	}
	b, err := newBigMachine(cfg.Machine, cfg.Rings*machine.RingLeafSize, "biglatency")
	if err != nil {
		return res, err
	}
	defer b.Close()
	ring0 := b.Ring(0).Fabric().(*fabric.Ring)
	res.Intra = ring0.UnloadedLatency(0, 1, b.Ring(0).AllocWords("probe.intra", 1).Base)

	var targets []int
	for t := 1; t < cfg.Rings; t *= 2 {
		targets = append(targets, t)
	}
	if last := cfg.Rings - 1; targets[len(targets)-1] != last {
		targets = append(targets, last)
	}
	lats := make([]sim.Time, len(targets))
	_, err = b.Run(1, func(ring int, p *machine.Proc) {
		if ring != 0 {
			return
		}
		for i, t := range targets {
			addr := b.Ring(t).AllocWords(fmt.Sprintf("probe.%d", t), 1).Base
			lats[i] = b.CrossFetch(p, 0, t, addr)
		}
	})
	if err != nil {
		return res, err
	}
	sessionOr(cfg.Obs).RecordPDES(pdesRecord("biglatency", b.Coordinator().Stats()))
	for i, t := range targets {
		res.Rows = append(res.Rows, BigLatencyRow{
			TargetRing: t,
			Latency:    lats[i],
			Ratio:      float64(lats[i]) / float64(res.Intra),
		})
	}
	return res, nil
}
