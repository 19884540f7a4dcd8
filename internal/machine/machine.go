// Package machine assembles the KSR-1 substrates — simulation engine,
// memory space, interconnect fabric, cache hierarchy, and coherence
// directory — into a whole-machine model, and exposes the processor-side
// programming interface (Proc) that the synchronization algorithms and NAS
// kernels are written against.
//
// Four machine models are provided: KSR1, KSR2 (2x CPU clock, same ring),
// Symmetry (bus, coherent caches), and Butterfly (MIN, no caches). All run
// the same programs, which is what lets the experiment harness reproduce
// the paper's cross-architecture barrier comparison.
package machine

import (
	"encoding/json"
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

// Monitor mirrors the per-cell hardware performance monitor the authors
// used: miss counts per cache level, remote access counts and time.
type Monitor struct {
	Accesses       uint64   // word accesses issued by the CEU
	SubMisses      uint64   // sub-cache misses
	LocalMisses    uint64   // local-cache (coherence) misses -> ring
	RemoteAccesses uint64   // transactions that went on the fabric
	RingTime       sim.Time // time spent in fabric transactions
	SubAllocs      uint64   // 2 KB block allocations in the sub-cache
	PageAllocs     uint64   // 16 KB page allocations in the local cache
	Poststores     uint64
	Prefetches     uint64
	GSPRetries     uint64 // failed get_sub_page attempts
	Interrupts     uint64 // simulated timer interrupts taken
	Stalls         uint64 // injected transient cell stalls taken
}

// Add accumulates other into m.
func (m *Monitor) Add(other Monitor) {
	m.Accesses += other.Accesses
	m.SubMisses += other.SubMisses
	m.LocalMisses += other.LocalMisses
	m.RemoteAccesses += other.RemoteAccesses
	m.RingTime += other.RingTime
	m.SubAllocs += other.SubAllocs
	m.PageAllocs += other.PageAllocs
	m.Poststores += other.Poststores
	m.Prefetches += other.Prefetches
	m.GSPRetries += other.GSPRetries
	m.Interrupts += other.Interrupts
	m.Stalls += other.Stalls
}

// Cell is one KSR processing node: CEU timing, two cache levels, and the
// monitor.
type Cell struct {
	id    int
	sub   *cache.Cache
	local *cache.Cache
	mon   Monitor

	nextInterrupt sim.Time

	// Fault-injection state, populated only when the machine's injector
	// targets this cell.
	stallRNG  *sim.RNG // private stall schedule stream, nil = no stalls
	nextStall sim.Time
	failAt    sim.Time // simulated time this cell halts, 0 = never
	failed    bool
}

// Monitor returns a copy of the cell's performance counters.
func (c *Cell) Monitor() Monitor { return c.mon }

// SubCache returns the first-level cache (for stats inspection).
//
//lint:ignore ksrlint/deadapi read by bench/ksrbench, a separate module that ksrlint does not load
func (c *Cell) SubCache() *cache.Cache { return c.sub }

// LocalCache returns the second-level cache.
func (c *Cell) LocalCache() *cache.Cache { return c.local }

// Machine is a complete simulated multiprocessor.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	space *memory.Space
	fab   fabric.Fabric
	dir   *coherence.Directory // nil when !cfg.Coherent
	cells []*Cell
	rng   *sim.RNG
	inj   *faults.Injector // nil when cfg.Faults injects nothing
	obs   *obs.Recorder    // nil when the machine is unobserved

	// fabAccessThen is fab.AccessThen, bound once: the cacheless access
	// steps call it as a plain function value, and ksrlint/hotalloc
	// checks each fabric's AccessThen where it is declared.
	fabAccessThen func(p *sim.Process, src, dst int, addr memory.Addr, done func())

	// prof is the simulated-time profiler's charge surface, held by
	// value so each charge point is one function-pointer load and one
	// predictable branch; all-nil (the default) means unprofiled.
	prof    prof.Hooks
	profRec *prof.Recorder // nil when the machine is unprofiled
}

// New builds a machine from a config.
func New(cfg Config) *Machine {
	if cfg.Cells < 1 {
		panic("machine: need at least one cell")
	}
	e := sim.NewEngine()
	m := &Machine{
		cfg:   cfg,
		eng:   e,
		space: memory.NewSpace(),
		rng:   sim.NewRNG(cfg.Seed),
	}
	if cfg.Faults.Enabled() {
		m.inj = faults.New(cfg.Faults, cfg.Seed)
	}
	if m.inj != nil || cfg.Checked {
		// Injected retries and checked-mode sweeps multiply zero-delay
		// event bursts; arm the livelock watchdog so a protocol bug shows
		// up as a LivelockError instead of a hung run. The limit is far
		// above any legitimate per-instant burst.
		e.SetWatchdog(1 << 20)
	}
	switch cfg.Fabric {
	case FabricRing:
		ring := cfg.Ring
		ring.Cells = cfg.Cells
		r := fabric.NewRing(e, ring)
		r.SetFaults(m.inj)
		m.fab = r
	case FabricBus:
		bus := cfg.Bus
		bus.Cells = cfg.Cells
		m.fab = fabric.NewBus(e, bus)
	case FabricButterfly:
		bf := cfg.Butterfly
		bf.Cells = cfg.Cells
		m.fab = fabric.NewButterfly(e, bf)
	default:
		panic(fmt.Sprintf("machine: unknown fabric kind %d", cfg.Fabric))
	}
	m.fabAccessThen = m.fab.AccessThen
	for i := 0; i < cfg.Cells; i++ {
		c := &Cell{id: i}
		if cfg.Coherent {
			sc, lc := cache.SubCacheConfig(), cache.LocalCacheConfig()
			if cfg.LRUCaches {
				sc.Policy = cache.LRUReplacement
				lc.Policy = cache.LRUReplacement
			}
			c.sub = cache.New(sc, m.rng.Split())
			c.local = cache.New(lc, m.rng.Split())
		}
		if cfg.TimerInterrupts && cfg.InterruptEvery > 0 {
			c.nextInterrupt = sim.Time(m.rng.Intn(int(cfg.InterruptEvery))) + 1
		}
		if m.inj.StallsEnabled() {
			c.stallRNG = m.inj.StallRNG()
			c.nextStall = m.inj.StallInterval(c.stallRNG)
		}
		c.failAt = m.inj.FailStopAt(i)
		m.cells = append(m.cells, c)
	}
	if cfg.Coherent {
		m.dir = coherence.NewDirectory(e, m.fab)
		m.dir.Faults = m.inj
		m.dir.Checked = cfg.Checked
		m.dir.DisableSnarfing = cfg.DisableSnarfing
		m.dir.OnInvalidate = func(cell int, sp memory.SubPageID) {
			m.cells[cell].sub.PurgeRange(sp.Base(), memory.SubPageSize)
		}
		if ring, ok := m.fab.(*fabric.Ring); ok && ring.Levels() > 1 {
			m.dir.SameDomain = func(a, b int) bool {
				return ring.LeafOf(a) == ring.LeafOf(b)
			}
		}
	}
	if rec := cfg.Obs; rec != nil {
		var plan json.RawMessage
		if cfg.Faults.Enabled() {
			plan, _ = json.Marshal(cfg.Faults)
		}
		rec.Attach(e.Now, cfg.Name, cfg.Cells, cfg.Seed, plan)
		e.SetHooks(rec.SimHooks())
		m.fab.SetObs(rec)
		if m.dir != nil && rec.Enabled(obs.CatCoh) {
			m.dir.Obs = rec
		}
		for _, c := range m.cells {
			if c.sub != nil {
				c.sub.SetObs(rec, c.id)
				c.local.SetObs(rec, c.id)
			}
		}
		m.obs = rec
	}
	if rec := cfg.Prof; rec != nil {
		m.AttachProf(rec)
	}
	return m
}

// AttachProf arms the simulated-time profiler: subsequent processor
// activity is attributed per cell and phase into rec. Attaching nil is a
// no-op (the machine stays unprofiled).
func (m *Machine) AttachProf(rec *prof.Recorder) {
	if rec == nil {
		return
	}
	m.prof = *rec.MachineHooks()
	m.profRec = rec
	if m.dir != nil {
		m.dir.Prof = *rec.DirectoryHooks()
	}
}

// Prof returns the machine's profile recorder, or nil when unprofiled.
func (m *Machine) Prof() *prof.Recorder { return m.profRec }

// Obs returns the machine's trace recorder, or nil when unobserved.
func (m *Machine) Obs() *obs.Recorder { return m.obs }

// Engine returns the simulation engine (for Now() and custom events).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Fabric returns the interconnect.
func (m *Machine) Fabric() fabric.Fabric { return m.fab }

// Directory returns the coherence directory, or nil on a non-coherent
// machine.
func (m *Machine) Directory() *coherence.Directory { return m.dir }

// Space returns the SVA space.
func (m *Machine) Space() *memory.Space { return m.space }

// CellAt returns cell i.
func (m *Machine) CellAt(i int) *Cell { return m.cells[i] }

// Cells returns the number of cells.
func (m *Machine) Cells() int { return m.cfg.Cells }

// Now returns the current simulated time.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// FaultStats returns cumulative fault-injection counters (zeros when no
// faults are configured).
func (m *Machine) FaultStats() faults.Stats { return m.inj.Stats() }

// FailedCells lists the cells fault injection has halted, in id order.
//
//lint:ignore ksrlint/deadapi TestGoldenFaultTrace writes the failed cells into its golden file
func (m *Machine) FailedCells() []int {
	var ids []int
	for _, c := range m.cells {
		if c.failed {
			ids = append(ids, c.id)
		}
	}
	return ids
}

// FootprintBytes returns the heap bytes currently committed to the
// machine's simulation state — cache frames and directory entries, the
// structures the sparse/lazy layout keeps cold until touched. Divided by
// the cell count it is the bytes_per_cell metric ksrsim bench reports.
func (m *Machine) FootprintBytes() int64 {
	var n int64
	for _, c := range m.cells {
		if c.sub != nil {
			n += c.sub.Footprint() + c.local.Footprint()
		}
	}
	if m.dir != nil {
		n += m.dir.Footprint()
	}
	return n
}

// CheckInvariants runs the coherence invariant checker (see
// coherence.Directory.CheckInvariants). It returns nil on a non-coherent
// machine.
func (m *Machine) CheckInvariants() error {
	if m.dir == nil {
		return nil
	}
	return m.dir.CheckInvariants()
}

// TotalMonitor sums the per-cell monitors.
func (m *Machine) TotalMonitor() Monitor {
	var tot Monitor
	for _, c := range m.cells {
		tot.Add(c.mon)
	}
	return tot
}

// Alloc reserves a named region of simulated memory.
func (m *Machine) Alloc(name string, size int64) memory.Region {
	return m.space.Alloc(name, size)
}

// AllocWords reserves n 8-byte words.
func (m *Machine) AllocWords(name string, n int64) memory.Region {
	return m.space.AllocWords(name, n)
}

// AllocPadded reserves n slots, one sub-page each (no false sharing).
func (m *Machine) AllocPadded(name string, n int64) memory.Region {
	return m.space.AllocPadded(name, n)
}

// PerCell is a set of sub-page-sized memory slots, one per cell, arranged
// so that on a home-based NUMA machine (butterfly) each cell's slot is
// home-local to it — the layout MCS-style algorithms assume when they
// "spin on locally accessible memory".
type PerCell struct {
	addrs []memory.Addr
}

// Addr returns cell c's slot (word-aligned, one full sub-page to itself).
func (pc PerCell) Addr(c int) memory.Addr { return pc.addrs[c] }

// AllocPerCell builds a PerCell layout.
func (m *Machine) AllocPerCell(name string) PerCell {
	n := m.cfg.Cells
	r := m.space.AllocPadded(name, int64(n))
	pc := PerCell{addrs: make([]memory.Addr, n)}
	baseSP := uint64(r.Base.SubPage())
	for c := 0; c < n; c++ {
		// Pick the slot whose sub-page id is congruent to c modulo the
		// cell count: on the butterfly that sub-page's home module is c.
		slot := (uint64(c) + uint64(n) - baseSP%uint64(n)) % uint64(n)
		pc.addrs[c] = r.PaddedSlot(int64(slot))
	}
	return pc
}

// SpawnProcs spawns one Proc on each of cells 0..procs-1 executing body
// without running the engine. Run is SpawnProcs plus a drive of the
// engine to completion; the BigMachine instead spawns every ring's
// program this way and drives all the engines through one PDES
// coordinator. namePrefix distinguishes processes across rings in
// aggregated deadlock reports ("ring3.cell7").
func (m *Machine) SpawnProcs(procs int, namePrefix string, body func(p *Proc)) error {
	if procs < 1 || procs > m.cfg.Cells {
		return fmt.Errorf("machine: Run with %d procs on %d cells", procs, m.cfg.Cells)
	}
	cells := make([]int, procs)
	for i := range cells {
		cells[i] = i
	}
	return m.SpawnProcsOn(cells, namePrefix, body)
}

// SpawnProcsOn spawns one Proc on each listed cell, in order. Unlike
// SpawnProcs the participant set need not start at cell 0 or be
// contiguous, which lets multi-tenant workloads pin competing programs
// to disjoint cell ranges of one machine. cells must be distinct and in
// range.
func (m *Machine) SpawnProcsOn(cells []int, namePrefix string, body func(p *Proc)) error {
	if len(cells) < 1 || len(cells) > m.cfg.Cells {
		return fmt.Errorf("machine: Run with %d procs on %d cells", len(cells), m.cfg.Cells)
	}
	seen := make(map[int]bool, len(cells))
	for _, c := range cells {
		if c < 0 || c >= m.cfg.Cells {
			return fmt.Errorf("machine: spawn on cell %d of %d", c, m.cfg.Cells)
		}
		if seen[c] {
			return fmt.Errorf("machine: spawn on cell %d twice", c)
		}
		seen[c] = true
	}
	for _, c := range cells {
		c := c
		m.eng.Spawn(fmt.Sprintf("%scell%d", namePrefix, c), func(p *sim.Process) {
			// A fail-stop unwinds the cell's program with a cellFailStop
			// panic; the process simply ends. Peers synchronizing with the
			// halted cell wedge, which Run reports as a DeadlockError
			// naming them and what they were waiting on.
			defer func() {
				if r := recover(); r != nil {
					if f, ok := r.(cellFailStop); ok && f.cell == c {
						return
					}
					// Another cell's fail-stop here would mean a
					// continuation step halted its cell in this one's
					// goroutine; steps end their chain instead.
					panic(r)
				}
			}()
			pr := &Proc{m: m, cell: m.cells[c], sp: p}
			body(pr)
		})
	}
	return nil
}

// Run spawns one Proc on each of cells 0..procs-1 executing body, runs the
// simulation to completion, and returns the elapsed simulated time for
// this program (from spawn to last completion).
func (m *Machine) Run(procs int, body func(p *Proc)) (sim.Time, error) {
	start := m.eng.Now()
	if err := m.SpawnProcs(procs, "", body); err != nil {
		return 0, err
	}
	m.startSampler()
	if err := m.eng.Run(); err != nil {
		m.captureFinal()
		// The run was abandoned mid-flight (deadlock, livelock): release
		// the parked cell goroutines before handing the error up, so sweeps
		// that tolerate failed configurations don't accumulate leaked
		// goroutines run after run.
		m.eng.Shutdown()
		return 0, err
	}
	m.captureFinal()
	return m.eng.Now() - start, nil
}

// RunOn is Run for an explicit participant set: it spawns one Proc on
// each listed cell, runs the simulation to completion, and returns the
// elapsed simulated time.
func (m *Machine) RunOn(cells []int, body func(p *Proc)) (sim.Time, error) {
	start := m.eng.Now()
	if err := m.SpawnProcsOn(cells, "", body); err != nil {
		return 0, err
	}
	m.startSampler()
	if err := m.eng.Run(); err != nil {
		m.captureFinal()
		m.eng.Shutdown()
		return 0, err
	}
	m.captureFinal()
	return m.eng.Now() - start, nil
}

// samplerCols are the telemetry columns every observed machine records:
// per-interval deltas for the cumulative counters, instantaneous gauges
// for in-flight transactions and directory occupancy.
var samplerCols = []string{
	"fab.tx", "fab.inflight", "fab.wait_us",
	"coh.fetch", "coh.inv", "coh.nack", "dir.subpages",
	"mon.remote", "sim.events",
}

// startSampler arms the telemetry sampler on the machine's first Run: a
// recurring engine event that snapshots the counters every SampleEvery
// of simulated time and retires itself once no process is live. The
// extra events only perturb the engine's sequence numbers, never the
// relative order of the workload's own events, so sampled runs compute
// identical results.
func (m *Machine) startSampler() {
	rec := m.obs
	ts := rec.Sampler(samplerCols)
	if ts == nil {
		return
	}
	every := rec.SampleInterval()
	var prevTx, prevWait, prevFetch, prevInv, prevNack, prevRemote, prevEvents float64
	row := make([]float64, len(samplerCols))
	sample := func() {
		fs := m.fab.Stats()
		tx, wait := float64(fs.Transactions), float64(fs.TotalWait)
		var fetch, inv, nack, subpages float64
		if m.dir != nil {
			ds := m.dir.Stats()
			fetch = float64(ds.ReadFetches + ds.WriteFetches)
			inv = float64(ds.Invalidations)
			nack = float64(ds.NACKs)
			subpages = float64(m.dir.Entries())
		}
		remote := float64(m.TotalMonitor().RemoteAccesses)
		events := float64(rec.EventsFired())
		row[0] = tx - prevTx
		row[1] = float64(m.fab.InFlight())
		row[2] = (wait - prevWait) / 1000
		row[3] = fetch - prevFetch
		row[4] = inv - prevInv
		row[5] = nack - prevNack
		row[6] = subpages
		row[7] = remote - prevRemote
		row[8] = events - prevEvents
		prevTx, prevWait, prevFetch, prevInv = tx, wait, fetch, inv
		prevNack, prevRemote, prevEvents = nack, remote, events
		ts.Record(m.eng.Now(), row)
	}
	var tick func()
	tick = func() {
		sample()
		if m.eng.Live() > 0 {
			m.eng.Schedule(every, tick)
		}
	}
	m.eng.Schedule(every, tick)
}

// captureFinal stores the end-of-run counter snapshot on the recorder
// for the run manifest. The last Run wins.
func (m *Machine) captureFinal() {
	if m.obs == nil {
		return
	}
	m.obs.SetFinal(m.eng.Now(), m.Counters())
}

// Counters builds the ordered final counter list recorded in run
// manifests; workload reports embed the same list so record→replay
// fidelity can be checked byte for byte.
func (m *Machine) Counters() []obs.Counter {
	fs := m.fab.Stats()
	mon := m.TotalMonitor()
	cs := []obs.Counter{
		{Name: "fabric.transactions", Value: float64(fs.Transactions)},
		{Name: "fabric.mean_latency_ns", Value: float64(fs.MeanLatency())},
		{Name: "fabric.total_wait_ns", Value: float64(fs.TotalWait)},
		{Name: "fabric.max_inflight", Value: float64(fs.MaxInFlight)},
		{Name: "mon.accesses", Value: float64(mon.Accesses)},
		{Name: "mon.sub_misses", Value: float64(mon.SubMisses)},
		{Name: "mon.local_misses", Value: float64(mon.LocalMisses)},
		{Name: "mon.remote_accesses", Value: float64(mon.RemoteAccesses)},
		{Name: "mon.ring_time_ns", Value: float64(mon.RingTime)},
	}
	if m.dir != nil {
		ds := m.dir.Stats()
		cs = append(cs,
			obs.Counter{Name: "coh.read_fetches", Value: float64(ds.ReadFetches)},
			obs.Counter{Name: "coh.write_fetches", Value: float64(ds.WriteFetches)},
			obs.Counter{Name: "coh.invalidations", Value: float64(ds.Invalidations)},
			obs.Counter{Name: "coh.snarfs", Value: float64(ds.Snarfs)},
			obs.Counter{Name: "coh.nacks", Value: float64(ds.NACKs)},
			obs.Counter{Name: "coh.retries", Value: float64(ds.Retries)},
			obs.Counter{Name: "coh.drops", Value: float64(ds.Drops)},
			obs.Counter{Name: "dir.subpages", Value: float64(m.dir.Entries())},
		)
	}
	if m.inj != nil {
		is := m.inj.Stats()
		cs = append(cs,
			obs.Counter{Name: "faults.slot_losses", Value: float64(is.SlotLosses)},
			obs.Counter{Name: "faults.link_degrades", Value: float64(is.LinkDegrades)},
		)
	}
	return cs
}

// Close releases any process goroutines still parked in the engine.
// Call it when abandoning a machine whose last Run returned without
// error but left processes alive — a deadline-bounded run, or a machine
// discarded mid-experiment. The machine must not be used afterwards.
func (m *Machine) Close() { m.eng.Shutdown() }
