package main

import (
	"fmt"
	"runtime"
	"time"
)

// roundFunc runs one round of a simulator workload and returns its
// canonical simulated outputs (hashed into the round digest) and its
// counters. tr is nil in untraced rounds.
type roundFunc func(tr *tracer) (canon any, t tally, err error)

// simWorkload is one simulator workload. setup turns the seed into the
// round's inputs (and reports per-layer set-up timings in its tally);
// every round then replays exactly those inputs on fresh machines, so
// all rounds of a run produce the same digest.
type simWorkload struct {
	name  string
	setup func(seed uint64, tiny bool) (roundFunc, tally, error)
	// procs, when positive, is GOMAXPROCS for the run. One simulated
	// machine runs one process at a time, handing a control token
	// between goroutines; with a second P idle, the runtime migrates the
	// woken goroutine across OS threads on some runs and not on others,
	// and round times on the 2-core reference host moved by 15% between
	// otherwise identical runs. One P removes that mode switch.
	procs int
}

const (
	// setupReps is how many times a run sets up from scratch; setup_s is
	// the median.
	setupReps = 5
	// minRounds is the fewest measured rounds a run makes, however long
	// a round takes.
	minRounds = 3
)

// roundTimes are the host times of a run's measured rounds, in seconds:
// as measured, and scaled to the reference host's speed by the probes
// on either side of each round.
type roundTimes struct {
	raw, scaled []float64
}

// run sets the workload up setupReps times (each set-up ends with one
// unmeasured warm-up round), then measures rounds for o.seconds. A host
// probe runs before the first and after every set-up and round. A traced
// run spends the first half untraced and the second half traced, and
// reports the per-layer metrics and the tracing overhead.
func (w simWorkload) run(o options) *outcome {
	out := newOutcome(w.name)
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	probe, err := newHostProbe(o.tiny)
	out.attempted++
	if err != nil {
		out.fail("host probe: %v", err)
		return out
	}
	defer probe.close()
	var round roundFunc
	var setupT tally
	var setupTimes, probes []float64
	want := ""
	before := probe.seconds()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		r, st, err := w.setup(o.seed, o.tiny)
		var canon any
		if err == nil {
			canon, _, err = r(nil)
		}
		el := time.Since(start).Seconds()
		out.attempted++
		if err != nil {
			out.fail("set-up: %v", err)
			return out
		}
		after := probe.seconds()
		setupTimes = append(setupTimes, probe.scale(el, before, after))
		probes = append(probes, after)
		before = after
		d, err := digestOf(canon)
		if err != nil {
			out.fail("digest: %v", err)
			return out
		}
		if want == "" {
			want = d
		} else if d != want {
			out.fail("set-up %d digest %.16s differs from set-up 0 digest %.16s", i, d, want)
		}
		round, setupT = r, st
	}
	out.digest = want
	out.checkGolden(o)

	measure := func(tr *tracer, budget time.Duration) (roundTimes, tally) {
		var times roundTimes
		var last tally
		deadline := time.Now().Add(budget)
		for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
			if tr != nil {
				tr.req = uint64(n + 1)
			}
			start := time.Now()
			canon, t, err := round(tr)
			el := time.Since(start).Seconds()
			after := probe.seconds()
			scaled := probe.scale(el, before, after)
			probes = append(probes, after)
			before = after
			out.attempted++
			if err != nil {
				out.fail("round %d: %v", n, err)
				continue
			}
			if d, err := digestOf(canon); err != nil || d != want {
				out.fail("round %d digest %.16s differs from set-up digest %.16s", n, d, want)
				continue
			}
			times.raw = append(times.raw, el)
			times.scaled = append(times.scaled, scaled)
			last = t
		}
		return times, last
	}

	if !o.trace {
		times, _ := measure(nil, o.seconds)
		out.endToEnd(setupTimes, times)
		out.note("host probe: median %.4g ms over %d probes; %.4g ms on the reference host", median(probes)*1e3, len(probes), probe.ref*1e3)
		return out
	}
	plain, t := measure(nil, o.seconds/2)
	tr := newTracer()
	traced, _ := measure(tr, o.seconds/2)
	tr.flush()
	out.perLayer = simLayerMetrics(t, setupT, tr, plain, traced)
	f := tr.file(w.name)
	out.spans = &f
	return out
}

// simLayerMetrics derives the per-layer metrics of a simulator workload
// from one round's counters, the set-up timings, and the traced rounds.
// Shares of round time use the raw times, which the spans measure; the
// tracing overhead compares scaled times.
func simLayerMetrics(t, setupT tally, tr *tracer, plain, traced roundTimes) map[string]float64 {
	m := make(map[string]float64)
	for k, v := range setupT {
		m[k] = v
	}
	rounds := float64(len(traced.raw))
	perRound := func(name string) spanStat {
		st := tr.stats[name]
		if st == nil {
			return spanStat{}
		}
		return *st
	}
	dur := func(name string) float64 { return float64(perRound(name).Dur) / 1e9 / rounds }

	// Counters: identical in every round.
	m["sim.events"] = t["sim.events"]
	m["sim.resumes"] = float64(tr.resumes) / rounds
	for _, k := range []string{
		"sim.pdes.windows", "sim.pdes.messages", "sim.pdes.events_per_window",
		"sim.pdes.lookahead_limited_frac", "sim.pdes.balance_bound", "sim.pdes.idle_frac",
		"machine.cross_transactions", "machine.bytes_per_cell",
		"cache.evictions", "coh.read_fetches", "coh.write_fetches", "coh.invalidations",
		"fabric.transactions", "fabric.max_inflight",
		"ksync.barrier_episodes", "ksync.lock_acquires", "workload.ops",
	} {
		m[k] = t[k]
	}
	m["machine.refs"] = t["mon.accesses"]
	m["machine.remote_per_ref"] = ratio(t["mon.remote_accesses"], t["mon.accesses"])
	m["cache.sub.hit_ratio"] = 1 - ratio(t["mon.sub_misses"], t["mon.accesses"])
	m["cache.local.hit_ratio"] = 1 - ratio(t["mon.local_misses"], t["mon.sub_misses"])
	m["coh.gsp_fail_frac"] = ratio(t["coh.gsp_failures"], t["coh.gsp_attempts"])
	m["fabric.wait_ns_per_tx"] = ratio(t["fabric.total_wait_ns"], t["fabric.transactions"])

	// Host time, from the traced rounds.
	dispatch := perRound("sim.dispatch")
	m["sim.host_ns_per_event"] = ratio(float64(dispatch.Self)/rounds, t["sim.events"])
	m["machine.new_s"] = dur("machine.new") + dur("machine.new_big")
	cf := perRound("machine.cross_fetch")
	m["machine.cross_fetch_host_us"] = ratio(float64(cf.Self)/1e3, float64(cf.Count))
	barrier := perRound("ksync.barrier")
	m["ksync.barrier_host_us"] = ratio(float64(barrier.Self)/1e3, float64(barrier.Count))
	acq, rel := perRound("ksync.lock_acquire"), perRound("ksync.lock_release")
	m["ksync.lock_host_us"] = ratio(float64(acq.Self+rel.Self)/1e3, float64(acq.Count))
	m["kernels.cg_s"] = dur("kernels.cg")
	m["kernels.is_s"] = dur("kernels.is")
	m["kernels.bigep_s"] = dur("kernels.bigep")
	m["workload.execute_s"] = dur("workload.execute")
	m["workload.host_ns_per_op"] = ratio(dur("workload.execute")*1e9, t["workload.ops"])
	touch := perRound("cache.touch")
	m["cache.touch_ns"] = ratio(float64(touch.Dur), t["cache.touches"]*rounds)

	total := sum(traced.raw) * 1e9
	for l, st := range tr.layerTotals() {
		if isLayer(l) {
			m[l+".self_frac"] = float64(st.Self) / total
		}
	}
	m["trace.unexplained_frac"] = 1 - float64(tr.explainedNs())/total
	m["trace.overhead_frac"] = median(traced.scaled)/median(plain.scaled) - 1
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// outcome is what running one workload produced.
type outcome struct {
	name      string
	attempted int
	failed    int
	errs      []string
	digest    string
	golden    string // "match", "no golden for this seed", or the mismatch
	e2e       map[string]float64
	perLayer  map[string]float64
	notes     []string // diagnostics: printed, not gated
	spans     *spanFile
}

func newOutcome(name string) *outcome { return &outcome{name: name} }

// maxErrs bounds the failure messages an outcome keeps; failed counts
// every one.
const maxErrs = 5

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < maxErrs {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// checkGolden compares the run's digest with the committed one for this
// (workload, seed), when there is one.
func (o *outcome) checkGolden(opt options) {
	g, ok := goldenDigest(o.name, opt.seed)
	switch {
	case opt.tiny || !ok:
		o.golden = "no golden for this seed"
	case g == o.digest:
		o.golden = "match"
	default:
		o.golden = "MISMATCH (golden " + g + ")"
		o.fail("digest %.16s differs from the golden %.16s for seed %d", o.digest, g, opt.seed)
	}
}

// endToEnd fills the end-to-end metrics of a simulator workload from its
// scaled times: a round is its unit of work. The peak resident set
// leaves out the host probe's table, which stays resident for the whole
// run. A run measures 40-70
// rounds, too few for a p90 with ten rounds beyond it, so its tail is
// the median. A p75 was tried: on the 2-core reference host one slowdown
// of the host can cover a fifth of a run's rounds, and the p75 of ten
// runs then spread 16-27% between quartiles, where the median spread
// 6-15%.
func (o *outcome) endToEnd(setupTimes []float64, rounds roundTimes) {
	s := summarize(rounds.scaled)
	o.e2e = map[string]float64{
		"setup_s":         median(setupTimes),
		"latency_ms_p50":  s.P50 * 1e3,
		"latency_ms_tail": s.Tail * 1e3,
		"peak_rss_mb":     peakRSSMB() - probeBytes/(1<<20),
	}
	o.note("rounds at the reference host's speed: %s seconds", s)
	o.note("rounds as measured: %s seconds", summarize(rounds.raw))
}
