package main

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/sim"
)

// bigringWorkload is the only workload where PDES windows, hub relays
// and a 1088-cell simulated state matter: a KSR-2 of 34 leaf rings run
// by the partitioned engine. The cross-ring phase is lookahead-bound
// (many small windows); BigEP is kernel-bound (few windows), so an
// adaptive-lookahead change should move the first and not the second.
//
// The partitioned engine runs its windows on one worker. Results,
// windows and messages are identical at any worker count; with two
// workers, alternating runs on the 2-core reference host spread 19%
// between quartiles against 10% with one, and with one only one
// simulated process runs at a time, so a traced round's spans lie on
// one host timeline.
var bigringWorkload = simWorkload{name: "bigring", setup: setupBigring, procs: 1}

type bigSize struct {
	cells, procsPerRing, iters, logPairs int
}

func bigSizeFor(tiny bool) bigSize {
	if tiny {
		return bigSize{cells: 128, procsPerRing: 2, iters: 2, logPairs: 12}
	}
	return bigSize{cells: machine.KSR2MaxCells, procsPerRing: 16, iters: 50, logPairs: 20}
}

// bigStep is one iteration of one proc in the cross-ring phase.
type bigStep struct {
	compute int64
	offset  int64 // ring-local read offset, in words
	dst     int   // remote ring
	post    bool  // CrossPost (asynchronous) instead of CrossFetch
}

type bigInputs struct {
	size  bigSize
	mseed uint64
	steps [][][]bigStep // [ring][proc][iter]
	ep    kernels.BigEPConfig
}

// bigRound is the canonical record of one bigring round.
type bigRound struct {
	CrossNs  int64                `json:"cross_ns"`
	Arrivals []int                `json:"arrivals"`
	EP       kernels.BigEPResult  `json:"ep"`
	PDES     sim.PartitionedStats `json:"pdes"`
	Monitor  machine.Monitor      `json:"monitor"`
}

// bigLocalWords is the size of each ring's shared region in words.
const bigLocalWords = 4096

func setupBigring(seed uint64, tiny bool) (roundFunc, tally, error) {
	sz := bigSizeFor(tiny)
	rng := sim.NewRNG(seed)
	in := &bigInputs{size: sz, mseed: rng.Uint64()}
	rings := sz.cells / machine.RingLeafSize
	in.steps = make([][][]bigStep, rings)
	for r := range in.steps {
		in.steps[r] = make([][]bigStep, sz.procsPerRing)
		for q := range in.steps[r] {
			steps := make([]bigStep, sz.iters)
			for i := range steps {
				dst := rng.Intn(rings - 1)
				if dst >= r {
					dst++ // any ring but the proc's own
				}
				steps[i] = bigStep{
					compute: 2000 + int64(rng.Intn(4000)),
					offset:  int64(rng.Intn(bigLocalWords - 64)),
					dst:     dst,
					post:    rng.Intn(4) == 0,
				}
			}
			in.steps[r][q] = steps
		}
	}
	in.ep = kernels.DefaultBigEPConfig(machine.RingLeafSize)
	in.ep.LogPairs = sz.logPairs
	in.ep.Seed = rng.Uint64()
	return in.round, tally{}, nil
}

func (in *bigInputs) round(tr *tracer) (any, tally, error) {
	tr.begin(nil, "machine.new_big")
	b, err := machine.NewBig(machine.KSR2Big(in.size.cells).WithSeed(in.mseed))
	tr.end(nil)
	if err != nil {
		return nil, nil, err
	}
	defer b.Close()
	b.Coordinator().SetWorkers(1)
	rings := b.Rings()
	regions := make([]memory.Region, rings)
	arrivals := make([]*machine.Arrivals, rings)
	for r := 0; r < rings; r++ {
		b.Ring(r).Engine().SetHooks(tr.hooks())
		regions[r] = b.Ring(r).AllocWords("bench.local", bigLocalWords)
		arrivals[r] = b.NewArrivals(r, "bench.arrivals")
	}

	var out bigRound
	tr.begin(nil, "bench.run")
	cross, err := b.Run(in.size.procsPerRing, func(ring int, p *machine.Proc) {
		sp := p.Process()
		for _, s := range in.steps[ring][p.CellID()] {
			tr.begin(sp, "machine.compute")
			p.Compute(s.compute)
			tr.end(sp)
			tr.begin(sp, "machine.read")
			p.ReadRange(regions[ring].Base+memory.Addr(s.offset*memory.WordSize), 64, memory.WordSize)
			tr.end(sp)
			remote := regions[s.dst].Base + memory.Addr(s.offset*memory.WordSize)
			if s.post {
				tr.begin(sp, "machine.cross_post")
				b.CrossPost(p, ring, s.dst, remote, arrivals[s.dst].Arrive)
				tr.end(sp)
			} else {
				tr.begin(sp, "machine.cross_fetch")
				b.CrossFetch(p, ring, s.dst, remote)
				tr.end(sp)
			}
		}
	})
	tr.end(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("cross-ring phase: %w", err)
	}
	out.CrossNs = cross.Ns()
	posts := make([]int, rings)
	for _, ringSteps := range in.steps {
		for _, steps := range ringSteps {
			for _, s := range steps {
				if s.post {
					posts[s.dst]++
				}
			}
		}
	}
	for r, a := range arrivals {
		if a.Count() != posts[r] {
			return nil, nil, fmt.Errorf("ring %d saw %d cross-ring posts, %d were sent", r, a.Count(), posts[r])
		}
		out.Arrivals = append(out.Arrivals, a.Count())
	}

	tr.begin(nil, "kernels.bigep")
	ep, err := kernels.RunBigEP(b, in.ep)
	tr.end(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("BigEP: %w", err)
	}
	var annuli int64
	for _, n := range ep.Annuli {
		annuli += n
	}
	if ep.Accepted == 0 || annuli != ep.Accepted {
		return nil, nil, fmt.Errorf("BigEP: %d accepted pairs but %d in the annuli", ep.Accepted, annuli)
	}
	out.EP = ep
	out.PDES = b.Coordinator().Stats()
	out.Monitor = b.TotalMonitor()

	t := tally{}
	for r := 0; r < rings; r++ {
		t.addMachine(b.Ring(r))
	}
	st := out.PDES
	var events, maxEvents, sent, limited, active uint64
	for _, ps := range st.Partitions {
		events += ps.Events
		maxEvents = max(maxEvents, ps.Events)
		sent += ps.Sent
		limited += ps.LookaheadLimited
		active += ps.ActiveWindows
	}
	t["sim.events"] += float64(st.Partitions[len(st.Partitions)-1].Events) // the hub
	t["sim.pdes.windows"] = float64(st.Windows)
	t["sim.pdes.messages"] = float64(st.Messages)
	t["sim.pdes.events_per_window"] = ratio(float64(events), float64(st.Windows))
	t["sim.pdes.lookahead_limited_frac"] = ratio(float64(limited), float64(sent))
	t["sim.pdes.balance_bound"] = ratio(float64(events), float64(maxEvents))
	// The share of (partition, window) pairs in which the partition had
	// nothing to run.
	slots := float64(st.Windows) * float64(len(st.Partitions))
	t["sim.pdes.idle_frac"] = 1 - ratio(float64(active), slots)
	tx, _ := b.CrossStats()
	t["machine.cross_transactions"] = float64(tx)
	t["machine.bytes_per_cell"] = b.BytesPerCell()
	return out, t, nil
}
