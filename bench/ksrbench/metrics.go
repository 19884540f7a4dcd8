package main

import "math"

// metricDef names one printed metric and its unit. The lists below are
// the benchmark's whole metric surface: an untraced run prints every
// end-to-end metric, a traced run every per-layer metric, for whichever
// workload it runs (a layer the workload does not exercise reads 0).
// BENCHMARK.json lists the same names; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the numbers a user sees. A workload's unit of work is
// one round for the simulator workloads and one job for the service.
// Simulator set-up and round times are scaled to the reference host's
// speed (see hostProbe).
var endToEnd = []metricDef{
	{"setup_s", "s"},          // median of the run's set-ups
	{"latency_ms_p50", "ms"},  // median unit-of-work latency
	{"latency_ms_tail", "ms"}, // highest percentile with >= 10 samples beyond it
	{"peak_rss_mb", "MB"},     // the process's peak resident set (VmHWM)
}

// perLayer explain the end-to-end numbers, one layer at a time. Counts
// and ratios come from the simulator's own counters and repeat exactly;
// host times come from the traced rounds.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.resumes", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.self_frac", "frac"},
	{"sim.pdes.windows", "count"},
	{"sim.pdes.messages", "count"},
	{"sim.pdes.events_per_window", "count"},
	{"sim.pdes.lookahead_limited_frac", "frac"},
	{"sim.pdes.balance_bound", "ratio"},
	{"sim.pdes.idle_frac", "frac"},
	{"machine.new_s", "s"},
	{"machine.refs", "count"},
	{"machine.remote_per_ref", "ratio"},
	{"machine.cross_transactions", "count"},
	{"machine.cross_fetch_host_us", "us"},
	{"machine.bytes_per_cell", "B"},
	{"machine.self_frac", "frac"},
	{"cache.sub.hit_ratio", "frac"},
	{"cache.local.hit_ratio", "frac"},
	{"cache.evictions", "count"},
	{"cache.touch_ns", "ns"},
	{"cache.self_frac", "frac"},
	{"coh.read_fetches", "count"},
	{"coh.write_fetches", "count"},
	{"coh.invalidations", "count"},
	{"coh.gsp_fail_frac", "frac"},
	{"fabric.transactions", "count"},
	{"fabric.wait_ns_per_tx", "ns"},
	{"fabric.max_inflight", "count"},
	{"ksync.barrier_episodes", "count"},
	{"ksync.barrier_host_us", "us"},
	{"ksync.lock_acquires", "count"},
	{"ksync.lock_host_us", "us"},
	{"ksync.self_frac", "frac"},
	{"kernels.cg_s", "s"},
	{"kernels.is_s", "s"},
	{"kernels.bigep_s", "s"},
	{"kernels.self_frac", "frac"},
	{"workload.compile_s", "s"},
	{"workload.save_s", "s"},
	{"workload.load_s", "s"},
	{"workload.trace_bytes", "B"},
	{"workload.ops", "count"},
	{"workload.execute_s", "s"},
	{"workload.host_ns_per_op", "ns"},
	{"workload.self_frac", "frac"},
	{"server.submit_ms_p50", "ms"},
	{"server.submit_ms_p99", "ms"},
	{"server.poll_ms_p50", "ms"},
	{"server.hit_ratio", "frac"},
	{"server.hit_ms_p50", "ms"},
	{"server.miss_ms_p50", "ms"},
	{"server.rejected", "count"},
	{"server.slo_miss_frac", "frac"},
	{"server.self_frac", "frac"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.evictions", "count"},
	{"resultcache.get_us", "us"},
	{"resultcache.put_us", "us"},
	{"jobq.dispatch_wait_us", "us"},
	{"jobq.completed", "count"},
	{"jobq.busy_frac", "frac"},
	{"journal.compactions", "count"},
	{"journal.bytes_per_append", "B"},
	{"journal.append_us", "us"},
	{"trace.overhead_frac", "frac"},
	{"trace.unexplained_frac", "frac"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pick renders the values named by defs, 0 for any the workload did not
// produce. A ratio over an empty sample (every round failed) is not a
// number JSON can carry; it prints as 0 too, and the run's failed count
// already says why.
func pick(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}
