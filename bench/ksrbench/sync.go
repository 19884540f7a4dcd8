package main

import (
	"fmt"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/sim"
)

// syncWorkload is the regime of the paper's Figures 3-5: every barrier
// algorithm and four locks on a 32-cell KSR-1. Host time goes to process
// switches, get_sub_page and invalidations, and ring-slot contention; the
// working set is a few sub-pages, so cache-capacity, kernel, workload
// and PDES changes should leave it unchanged.
var syncWorkload = simWorkload{name: "sync", setup: setupSync, procs: 1}

type syncSize struct {
	procs    []int
	episodes int // barrier episodes per (algorithm, P)
	acquires int // lock acquisitions per proc per (lock, P)
}

func syncSizeFor(tiny bool) syncSize {
	if tiny {
		return syncSize{procs: []int{4}, episodes: 3, acquires: 2}
	}
	return syncSize{procs: []int{8, 32}, episodes: 50, acquires: 40}
}

// syncLocks are the lock algorithms a round runs, by name.
var syncLocks = []string{"hw", "rw", "anderson", "mcs"}

// syncRun is the canonical record of one (primitive, P) run.
type syncRun struct {
	Name      string    `json:"name"`
	Procs     int       `json:"procs"`
	ElapsedNs int64     `json:"elapsed_ns"`
	Counters  []float64 `json:"counters"`
}

// syncInputs are the seeded per-proc cycle counts a round replays.
type syncInputs struct {
	size    syncSize
	mseed   uint64
	think   [][]int64 // [proc][episode] barrier think cycles
	hold    [][]int64 // [proc][acquire] lock hold cycles
	delay   [][]int64 // [proc][acquire] cycles between lock requests
	rwReads [][]bool  // [proc][acquire] read (true) or write request
}

func setupSync(seed uint64, tiny bool) (roundFunc, tally, error) {
	sz := syncSizeFor(tiny)
	rng := sim.NewRNG(seed)
	in := &syncInputs{size: sz, mseed: rng.Uint64()}
	const maxProcs = 32
	for p := 0; p < maxProcs; p++ {
		think := make([]int64, sz.episodes)
		for e := range think {
			think[e] = 200 + int64(rng.Intn(1800))
		}
		in.think = append(in.think, think)
		hold := make([]int64, sz.acquires)
		delay := make([]int64, sz.acquires)
		reads := make([]bool, sz.acquires)
		for a := range hold {
			hold[a] = 1000 + int64(rng.Intn(2000))
			delay[a] = 5000 + int64(rng.Intn(10000))
			reads[a] = rng.Intn(2) == 0
		}
		in.hold = append(in.hold, hold)
		in.delay = append(in.delay, delay)
		in.rwReads = append(in.rwReads, reads)
	}
	return in.round, tally{}, nil
}

// newMachine builds a KSR-1 under a machine.new span and arms the
// tracer's engine hooks on it.
func newMachine(tr *tracer, cells int, seed uint64) *machine.Machine {
	tr.begin(nil, "machine.new")
	m := machine.New(machine.KSR1(cells).WithSeed(seed))
	tr.end(nil)
	m.Engine().SetHooks(tr.hooks())
	return m
}

func (in *syncInputs) round(tr *tracer) (any, tally, error) {
	t := tally{}
	var runs []syncRun
	record := func(name string, procs int, m *machine.Machine, el sim.Time) {
		t.addMachine(m)
		var cs []float64
		for _, c := range m.Counters() {
			cs = append(cs, c.Value)
		}
		runs = append(runs, syncRun{Name: name, Procs: procs, ElapsedNs: el.Ns(), Counters: cs})
	}
	for _, f := range ksync.Algorithms() {
		for _, pn := range in.size.procs {
			m := newMachine(tr, 32, in.mseed)
			b := f.New(m, pn)
			tr.begin(nil, "bench.run")
			el, err := m.Run(pn, func(p *machine.Proc) {
				sp, think := p.Process(), in.think[p.CellID()]
				for _, c := range think {
					tr.begin(sp, "machine.compute")
					p.Compute(c)
					tr.end(sp)
					tr.begin(sp, "ksync.barrier")
					b.Wait(p)
					tr.end(sp)
				}
			})
			tr.end(nil)
			if err != nil {
				return nil, nil, fmt.Errorf("barrier %s at P=%d: %w", f.Name, pn, err)
			}
			t["ksync.barrier_episodes"] += float64(pn * in.size.episodes)
			record("barrier/"+f.Name, pn, m, el)
		}
	}
	for _, name := range syncLocks {
		for _, pn := range in.size.procs {
			m := newMachine(tr, 32, in.mseed)
			acquire, release := in.lockOps(name, m)
			tr.begin(nil, "bench.run")
			el, err := m.Run(pn, func(p *machine.Proc) {
				sp, id := p.Process(), p.CellID()
				for a := range in.hold[id] {
					tr.begin(sp, "ksync.lock_acquire")
					tok := acquire(p, in.rwReads[id][a])
					tr.end(sp)
					tr.begin(sp, "machine.compute")
					p.Compute(in.hold[id][a])
					tr.end(sp)
					tr.begin(sp, "ksync.lock_release")
					release(p, tok)
					tr.end(sp)
					tr.begin(sp, "machine.compute")
					p.Compute(in.delay[id][a])
					tr.end(sp)
				}
			})
			tr.end(nil)
			if err != nil {
				return nil, nil, fmt.Errorf("lock %s at P=%d: %w", name, pn, err)
			}
			t["ksync.lock_acquires"] += float64(pn * in.size.acquires)
			record("lock/"+name, pn, m, el)
		}
	}
	return runs, t, nil
}

// lockOps adapts the exclusive locks and the read-write ticket lock to
// one acquire/release shape; read only matters to the read-write lock.
func (in *syncInputs) lockOps(name string, m *machine.Machine) (
	acquire func(p *machine.Proc, read bool) ksync.Token,
	release func(p *machine.Proc, tok ksync.Token),
) {
	var l ksync.Lock
	switch name {
	case "rw":
		rw := ksync.NewRWLock(m)
		return rw.Acquire, rw.Release
	case "hw":
		l = ksync.NewHWLock(m)
	case "anderson":
		l = ksync.NewAndersonLock(m)
	case "mcs":
		l = ksync.NewMCSLock(m)
	}
	return func(p *machine.Proc, _ bool) ksync.Token { l.Acquire(p); return ksync.Token{} },
		func(p *machine.Proc, _ ksync.Token) { l.Release(p) }
}
