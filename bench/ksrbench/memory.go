package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/kernels"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/workload"
)

// memoryWorkload is where the cache, the access path, coherence fetches,
// the workload interpreter and the NAS kernels do the work: three
// compiled access regimes (sub-cache resident, local-cache resident,
// remote and write-heavy) on 16 procs of a 32-cell KSR-1, then CG and IS
// (Tables 1-2). Each regime has one flag barrier and there is no PDES.
// The read-mostly and write-heavy regimes expose a change that speeds
// reads at the writers' expense.
var memoryWorkload = simWorkload{name: "memory", setup: setupMemory, procs: 1}

const memProcs = 16

// memRegime is one compiled access regime.
type memRegime struct {
	name     string
	ws       int64 // working set: per proc when private, total when shared
	sharing  string
	readPct  int
	accesses int // per iteration
	iters    int
}

func memRegimes(tiny bool) []memRegime {
	if tiny {
		return []memRegime{
			{"subcache", 16 << 10, workload.SharingPrivate, 90, 50, 2},
			{"local", 256 << 10, workload.SharingPrivate, 90, 50, 2},
			{"remote", 512 << 10, workload.SharingShared, 50, 50, 2},
		}
	}
	return []memRegime{
		// Fits the 256 KB sub-cache even after its 2 KB block rounding.
		{"subcache", 64 << 10, workload.SharingPrivate, 90, 400, 16},
		// Misses the sub-cache, stays in the 32 MB local cache once warm.
		{"local", 1 << 20, workload.SharingPrivate, 90, 400, 24},
		// Shared by all procs, half writes: remote fetches and invalidations.
		{"remote", 8 << 20, workload.SharingShared, 50, 300, 8},
	}
}

func (r memRegime) spec(seed uint64) workload.Spec {
	return workload.Spec{
		Schema: workload.SpecSchema, Name: "bench-" + r.name,
		Machine: "ksr1", Cells: 32, Seed: seed,
		Tenants: []workload.Tenant{{
			Name: "t", FirstCell: 0, Procs: memProcs,
			Arrival: workload.Arrival{Process: workload.ArrivalSteady},
			Phases: []workload.Phase{{
				Name: r.name, Iterations: r.iters,
				WorkingSetBytes: r.ws, AccessesPerIter: r.accesses, ReadPct: r.readPct,
				Sharing: r.sharing, Pattern: workload.PatternUniform,
				ComputePerIter: 100,
				Barrier:        workload.BarrierFlag, BarrierEvery: r.iters,
			}},
		}},
	}
}

type memInputs struct {
	traces []*workload.Trace
	mseed  uint64
	cg     kernels.CGConfig
	is     kernels.ISConfig
}

// memRound is the canonical record of one memory round.
type memRound struct {
	Reports []*workload.Report `json:"reports"`
	Probe   []uint64           `json:"probe"`
	CG      kernels.CGResult   `json:"cg"`
	IS      kernels.ISResult   `json:"is"`
}

// setupMemory compiles the three seeded regimes to traces and sends
// each through one Save/Load round-trip; rounds execute the loaded
// traces, so the trace format is on the measured path.
func setupMemory(seed uint64, tiny bool) (roundFunc, tally, error) {
	rng := sim.NewRNG(seed)
	in := &memInputs{mseed: rng.Uint64()}
	st := tally{}
	for _, r := range memRegimes(tiny) {
		start := time.Now()
		t, err := workload.Compile(r.spec(rng.Uint64()))
		if err != nil {
			return nil, nil, fmt.Errorf("compile %s: %w", r.name, err)
		}
		st["workload.compile_s"] += time.Since(start).Seconds()

		var buf bytes.Buffer
		start = time.Now()
		if err := t.Save(&buf); err != nil {
			return nil, nil, fmt.Errorf("save %s: %w", r.name, err)
		}
		st["workload.save_s"] += time.Since(start).Seconds()
		saved := buf.Bytes()
		st["workload.trace_bytes"] += float64(len(saved))

		start = time.Now()
		loaded, err := workload.Load(bytes.NewReader(saved))
		if err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", r.name, err)
		}
		st["workload.load_s"] += time.Since(start).Seconds()

		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil || !bytes.Equal(again.Bytes(), saved) {
			return nil, nil, fmt.Errorf("trace %s does not survive a Save/Load round-trip", r.name)
		}
		in.traces = append(in.traces, loaded)
	}
	// Half the default CG matrix and IS key count keep a round near 0.4 s,
	// so a run's median is over about 50 rounds.
	in.cg = kernels.DefaultCGConfig(memProcs)
	in.cg.N, in.cg.NNZ = in.cg.N/2, in.cg.NNZ/2
	in.cg.Seed = rng.Uint64()
	in.is = kernels.DefaultISConfig(memProcs)
	in.is.LogKeys--
	in.is.Seed = rng.Uint64()
	if tiny {
		in.cg.N, in.cg.NNZ = 160, 1600
		in.is.LogKeys = 10
	}
	return in.round, st, nil
}

func (in *memInputs) round(tr *tracer) (any, tally, error) {
	t := tally{}
	var out memRound
	for _, trace := range in.traces {
		tr.begin(nil, "workload.execute")
		rep, err := workload.Execute(trace, workload.ExecOptions{})
		tr.end(nil)
		if err != nil {
			return nil, nil, fmt.Errorf("execute %s: %w", trace.Header.Spec.Name, err)
		}
		t.addCounters(rep.Counters)
		o := rep.Ops
		t["workload.ops"] += float64(o.Compute + o.Reads + o.Writes + o.LockOps + o.Barriers)
		out.Reports = append(out.Reports, rep)
	}

	// Probe: replay the two private regimes' addresses straight into a
	// sub-cache and a local cache, the cache layer alone.
	tr.begin(nil, "cache.touch")
	sub := cache.New(cache.SubCacheConfig(), sim.NewRNG(in.mseed))
	local := cache.New(cache.LocalCacheConfig(), sim.NewRNG(in.mseed+1))
	for _, trace := range in.traces[:2] {
		for _, op := range trace.Slots[0] {
			if op.Kind == workload.OpRead || op.Kind == workload.OpWrite {
				sub.Touch(memory.Addr(op.A))
				local.Touch(memory.Addr(op.A))
			}
		}
	}
	tr.end(nil)
	ss, ls := sub.Stats(), local.Stats()
	t["cache.touches"] = float64(ss.Accesses + ls.Accesses)
	out.Probe = []uint64{ss.Hits, ss.Evictions, ls.Hits, ls.Evictions}

	m := newMachine(tr, 32, in.mseed)
	tr.begin(nil, "kernels.cg")
	cg, err := kernels.RunCG(m, in.cg)
	tr.end(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("CG: %w", err)
	}
	if math.IsNaN(cg.Residual) || cg.Residual > 1e-3 {
		return nil, nil, fmt.Errorf("CG residual %g did not converge", cg.Residual)
	}
	t.addMachine(m)
	out.CG = cg

	m = newMachine(tr, 32, in.mseed)
	tr.begin(nil, "kernels.is")
	is, err := kernels.RunIS(m, in.is)
	tr.end(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("IS: %w", err)
	}
	if !is.Sorted {
		return nil, nil, fmt.Errorf("IS ranks failed verification")
	}
	t.addMachine(m)
	out.IS = is
	return out, t, nil
}
