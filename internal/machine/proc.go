package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

// Proc is the processor-side programming interface: what a thread bound to
// one cell can do. All simulated latencies — cache hits, allocation
// overheads, ring transactions, atomic sub-page operations — are charged
// through these methods, so algorithm code reads like ordinary shared
// memory code.
type Proc struct {
	m    *Machine
	cell *Cell
	sp   *sim.Process

	bypassSub bool

	// halting is set by a continuation step that found the cell's
	// fail-stop due: the step ends its chain instead, and Run halts the
	// cell once its goroutine resumes.
	halting bool

	acc  accessChain // memory operations as one continuation chain
	gsp  gspChain    // get_sub_page attempts as one continuation chain
	spin spinChain   // flag spins as one continuation chain
}

// accessChain runs a Proc's memory operation — one word or a strided
// range of words — as a single continuation chain (see
// sim.Process.Run). Sub-cache and local-cache hits accumulate their
// cycle costs; a miss first charges the accumulated cycles with
// SleepThen, then runs the coherence fill (or, on a cacheless machine,
// the fabric transaction) as steps; the final charge arms the
// operation's continuation. So the processor's goroutine resumes once
// per operation, however many fills, joins and waits it took. The step
// method values are bound once, on the Proc's first access.
type accessChain struct {
	p      *Proc
	addr   memory.Addr // the word being accessed
	left   int64       // words still to access, this one included
	stride int64
	write  bool
	cycles int64    // local cycles not yet charged
	extra  int64    // cycles added after the last word (Poststore's stall)
	start  sim.Time // when the current cacheless transaction began

	store bool // WriteWord: store val when the word's access completes
	val   uint64
	vals  []uint64 // capture each word's value when its access completes

	done func() // continuation after the final charge, nil ends the chain

	runFn        func()
	fillFn       func()
	filledFn     func(lat sim.Time, remote bool)
	remoteFn     func()
	remoteDoneFn func()
}

// gspChain runs a Proc's get_sub_page attempts on one sub-page as a
// single continuation chain (see sim.Process.Run): the attempt, and for
// AcquireSubPage every failed attempt and the wait for the holder's
// release, run as engine steps, so the processor's goroutine resumes only
// once the sub-page is acquired or the single attempt has failed. Its
// step method values are bound once, on the Proc's first get_sub_page.
type gspChain struct {
	p     *Proc
	sp    memory.SubPageID
	ok    bool     // the chain ended with the sub-page acquired
	ver   uint64   // sub-page version seen before the current attempt
	start sim.Time // when the current wait for a release began

	attemptFn func()
	doneFn    func(ok bool, lat sim.Time)
	waitedFn  func()
}

// spinChain runs a Proc's flag spin — SpinUntilAtLeast on one word,
// SpinUntilAllAtLeast on several in one sub-page — as a single
// continuation chain (see sim.Process.Run). The version snapshot, the
// read through the access chain, the threshold compare, and the wait for
// the sub-page to change (on a cacheless machine, the poll gap) are all
// steps, so the processor's goroutine resumes only once every word has
// reached the threshold, however often the words change on the way. Its
// step method values are bound once, on the Proc's first spin.
type spinChain struct {
	p     *Proc
	addr  memory.Addr // the first word spun on
	min   uint64      // the value every word must reach
	words []uint64    // the words' values as last read, one per word
	ver   uint64      // sub-page version seen before the current read
	start sim.Time    // when the current wait for a change began

	readFn     func()
	readRestFn func()
	comparedFn func()
	waitedFn   func()
}

// CellID returns the cell this Proc runs on.
func (p *Proc) CellID() int { return p.cell.id }

// Machine returns the machine.
func (p *Proc) Machine() *Machine { return p.m }

// Process exposes the underlying simulation process (for Cond waits in
// higher layers).
func (p *Proc) Process() *sim.Process { return p.sp }

// Now returns the current simulated time.
func (p *Proc) Now() sim.Time { return p.sp.Now() }

// Obs returns the machine's trace recorder, or nil when unobserved —
// higher layers (ksync) use it to emit their own trace events.
func (p *Proc) Obs() *obs.Recorder { return p.m.obs }

// ProfSpan opens a simulated-time re-attribution span on this cell:
// until the matching ProfSpanEnd, every charge lands on ph (the
// outermost span wins, so nested spans are safe). Higher layers (ksync)
// bracket lock and barrier episodes with it. Returns the token
// ProfSpanEnd needs; when the machine is unprofiled both calls are one
// branch each.
func (p *Proc) ProfSpan(ph prof.Phase) prof.Phase {
	if fn := p.m.prof.SpanBegin; fn != nil {
		return fn(p.cell.id, ph)
	}
	return prof.PhaseNone
}

// ProfSpanEnd closes the span opened by the ProfSpan that returned prev.
func (p *Proc) ProfSpanEnd(prev prof.Phase) {
	if fn := p.m.prof.SpanEnd; fn != nil {
		fn(p.cell.id, prev)
	}
}

// Compute spends ops local operations (one CPU cycle each: the unit the
// paper uses for its synthetic lock workloads).
func (p *Proc) Compute(ops int64) {
	if ops <= 0 {
		return
	}
	p.chargeCycles(ops)
}

// ComputeThen is the continuation form of Compute, for use inside a Run
// step: it charges ops cycles of computation and runs next (nil ends the
// chain) once they have elapsed — at once when ops is not positive.
//
//ksr:hotpath
func (p *Proc) ComputeThen(ops int64, next func()) {
	if ops <= 0 {
		if next != nil {
			next()
		}
		return
	}
	if p.failStopDue() {
		p.halting = true
		return
	}
	p.sp.SleepThen(p.cycleTime(ops, prof.PhaseCompute), next)
}

// Run executes step as a continuation chain on the processor's
// simulation process (see sim.Process.Run) and returns once the chain
// has ended. Engine-side code that runs over data — the workload
// interpreter — uses it to string Proc operations together with
// ComputeThen and AccessThen, so the processor's goroutine resumes only
// when the chain ends. A step that finds the cell's fail-stop due ends
// its chain; the cell then halts here, in its own goroutine.
func (p *Proc) Run(step func()) {
	p.sp.Run(step)
	if p.halting {
		p.halting = false
		p.checkFailStop()
	}
}

// cellFailStop is the panic sentinel that unwinds a cell's program when
// fault injection halts it; Machine.Run recovers it.
type cellFailStop struct{ cell int }

// checkFailStop halts the cell if its configured fail-stop time has
// arrived. Called at instruction boundaries (cycle charges, accesses),
// so a cell never fails in the middle of a protocol transaction — the
// hardware analogue being that a cell dies between ring interactions,
// not halfway through owning a slot.
func (p *Proc) checkFailStop() {
	if p.failStopDue() {
		p.cell.failed = true
		p.m.inj.NoteFailStop()
		panic(cellFailStop{p.cell.id})
	}
}

// failStopDue reports whether the cell's fail-stop time has arrived:
// checkFailStop's test without halting, for continuation steps, which run
// in other cells' goroutines and so must end their chain instead.
//
//ksr:hotpath
func (p *Proc) failStopDue() bool {
	c := p.cell
	return c.failAt > 0 && !c.failed && p.sp.Now() >= c.failAt
}

// chargeCycles advances simulated time by n CPU cycles of computation.
func (p *Proc) chargeCycles(n int64) {
	p.chargeCyclesAs(n, prof.PhaseCompute)
}

// chargeCyclesAs advances simulated time by n CPU cycles attributed to
// profile phase ph.
func (p *Proc) chargeCyclesAs(n int64, ph prof.Phase) {
	p.checkFailStop()
	p.sp.Sleep(p.cycleTime(n, ph))
}

// cycleTime converts n CPU cycles attributed to profile phase ph into
// simulated time, injecting a timer interrupt or a transient stall when
// one is due (if the machine models them), and reports the charge to the
// profiler. Inflation from interrupts and stalls stays on the phase that
// absorbed it, exactly as a hardware counter would see it.
//
//ksr:hotpath
func (p *Proc) cycleTime(n int64, ph prof.Phase) sim.Time {
	d := sim.Time(n) * p.m.cfg.CPUCycle
	cfg := &p.m.cfg
	if cfg.TimerInterrupts && cfg.InterruptEvery > 0 {
		for p.sp.Now()+d >= p.cell.nextInterrupt {
			d += cfg.InterruptCost
			p.cell.nextInterrupt += cfg.InterruptEvery
			p.cell.mon.Interrupts++
		}
	}
	if c := p.cell; c.stallRNG != nil {
		for p.sp.Now()+d >= c.nextStall {
			d += p.m.inj.StallTime()
			c.nextStall += p.m.inj.StallInterval(c.stallRNG)
			c.mon.Stalls++
		}
	}
	if fn := p.m.prof.Charge; fn != nil {
		fn(p.cell.id, ph, d)
	}
	return d
}

// handleEvictions reports capacity-evicted sub-pages to the directory and
// enforces sub-cache inclusion.
func (p *Proc) handleEvictions(ev *cache.Evicted) {
	if ev == nil {
		return
	}
	for _, u := range ev.Present {
		base := p.cell.local.TransferUnitBase(u)
		p.m.dir.Drop(p.cell.id, base.SubPage())
		p.cell.sub.PurgeRange(base, memory.SubPageSize)
	}
}

// accessor returns the Proc's access record, binding its steps on first
// use.
func (p *Proc) accessor() *accessChain {
	a := &p.acc
	if a.p == nil {
		a.bind(p)
	}
	return a
}

// bind sets up the access record's steps on the Proc's first access.
//
//ksr:coldpath once per processor
func (a *accessChain) bind(p *Proc) {
	a.p = p
	a.runFn, a.fillFn, a.filledFn = a.run, a.fill, a.filled
	a.remoteFn, a.remoteDoneFn = a.remote, a.remoteDone
}

// begin sets the record up for count accesses from addr, stride bytes
// apart, ending in done.
//
//ksr:hotpath
func (a *accessChain) begin(addr memory.Addr, count, stride int64, write bool, done func()) {
	a.addr, a.left, a.stride, a.write, a.done = addr, count, stride, write, done
	a.cycles, a.extra = 0, 0
	a.store, a.vals = false, nil
}

// AccessThen is the continuation form of ReadRange and WriteRange (and,
// with count 1, of Read and Write), for use inside a Run step: it makes
// count timed accesses from base with the given byte stride and runs
// next (nil ends the chain) once the last access's cycles have elapsed.
//
//ksr:hotpath
func (p *Proc) AccessThen(base memory.Addr, count, stride int64, write bool, next func()) {
	a := p.accessor()
	a.begin(base, count, stride, write, next)
	a.run()
}

// run accesses words until one needs the fabric — its step then carries
// the chain on — or none are left, and then arms the final charge. Each
// word and the final charge begin at an instruction boundary, where a
// fail-stop that has come due ends the chain.
//
//ksr:hotpath
func (a *accessChain) run() {
	p := a.p
	for a.left > 0 {
		if p.failStopDue() {
			p.halting = true
			return
		}
		if !a.hit() {
			return
		}
		a.landed()
	}
	a.cycles += a.extra
	a.extra = 0
	if a.cycles > 0 && p.failStopDue() {
		p.halting = true
		return
	}
	a.charge(a.done)
}

// hit makes the current word's access and reports whether it was served
// locally, its cycles accumulated. Otherwise the access needs the fabric,
// and hit has armed the step that continues the chain: the accumulated
// cycles are charged first (they are memory time, not computation), so
// event ordering stays faithful.
//
//ksr:hotpath
func (a *accessChain) hit() bool {
	p := a.p
	cfg := &p.m.cfg
	c := p.cell
	c.mon.Accesses++

	if !cfg.Coherent {
		// Cacheless NUMA machine: home-local accesses cost memory time,
		// everything else is a network transaction.
		if p.m.homeOf(a.addr) == c.id {
			a.cycles += cfg.LocalMemCycles
			return true
		}
		a.charge(a.remoteFn)
		return false
	}

	sp := a.addr.SubPage()
	var valid bool
	if a.write {
		valid = p.m.dir.IsWritable(c.id, sp)
	} else {
		valid = p.m.dir.HasValid(c.id, sp)
	}
	if !valid {
		// Remote: a coherence transaction on the fabric, then fills.
		c.mon.SubMisses++
		c.mon.LocalMisses++
		a.charge(a.fillFn)
		return false
	}
	if p.bypassSub {
		// Sub-caching disabled: serve from the local cache without
		// allocating sub-cache blocks (no pollution, no 2-cycle hits).
		a.cycles += a.localCycles()
		return true
	}
	switch out, _ := c.sub.Touch(a.addr); out {
	case cache.Hit:
		if a.write {
			a.cycles += cfg.SubCacheWriteCycles
		} else {
			a.cycles += cfg.SubCacheReadCycles
		}
	default:
		// Fill from the local cache (present by inclusion).
		c.mon.SubMisses++
		c.local.Touch(a.addr)
		a.cycles += a.localCycles()
		if out == cache.AllocMiss {
			a.cycles += cfg.SubAllocExtraCycles
			c.mon.SubAllocs++
		}
	}
	return true
}

// localCycles is the local-cache access time of the current word.
//
//ksr:hotpath
func (a *accessChain) localCycles() int64 {
	if a.write {
		return a.p.m.cfg.LocalCacheWriteCycles
	}
	return a.p.m.cfg.LocalCacheReadCycles
}

// charge charges the accumulated cycles and runs next (nil ends the
// chain) once they have elapsed — at once when there are none.
//
//ksr:hotpath
func (a *accessChain) charge(next func()) {
	if a.cycles <= 0 {
		if next != nil {
			next()
		}
		return
	}
	d := a.p.cycleTime(a.cycles, prof.PhaseMemory)
	a.cycles = 0
	a.p.sp.SleepThen(d, next)
}

// landed completes the current word's access — a WriteWord's store, a
// value capture — and moves on to the next word.
//
//ksr:hotpath
func (a *accessChain) landed() {
	if a.store {
		a.p.m.space.WriteWord(a.addr, a.val)
	}
	if a.vals != nil {
		a.vals[0] = a.p.m.space.ReadWord(a.addr)
		a.vals = a.vals[1:]
	}
	a.addr += memory.Addr(a.stride)
	a.left--
}

// fill runs the coherence transaction that makes the current word
// readable or writable.
//
//ksr:hotpath
func (a *accessChain) fill() {
	p := a.p
	if a.write {
		p.m.dir.EnsureWritableThen(p.sp, p.cell.id, a.addr.SubPage(), a.filledFn)
	} else {
		p.m.dir.EnsureReadableThen(p.sp, p.cell.id, a.addr.SubPage(), a.filledFn)
	}
}

// filled charges the fill's ring time, fills the local cache and the
// sub-cache with the word's sub-page, and carries on with the next word.
//
//ksr:hotpath
func (a *accessChain) filled(lat sim.Time, _ bool) {
	p := a.p
	cfg := &p.m.cfg
	c := p.cell
	c.mon.RemoteAccesses++
	c.mon.RingTime += lat
	if fn := p.m.prof.Access; fn != nil {
		fn(c.id, prof.PhaseMemory, lat)
	}
	out, ev := c.local.Touch(a.addr)
	p.handleEvictions(ev)
	if out == cache.AllocMiss {
		a.cycles += cfg.PageAllocExtraCycles
		c.mon.PageAllocs++
	}
	if !p.bypassSub {
		if outSub, _ := c.sub.Touch(a.addr); outSub == cache.AllocMiss {
			a.cycles += cfg.SubAllocExtraCycles
			c.mon.SubAllocs++
		}
	}
	a.cycles += a.localCycles()
	a.landed()
	a.run()
}

// remote runs the current word's transaction to its home module on a
// cacheless machine.
//
//ksr:hotpath
func (a *accessChain) remote() {
	p := a.p
	a.start = p.sp.Now()
	p.m.fabAccessThen(p.sp, p.cell.id, p.m.homeOf(a.addr), a.addr, a.remoteDoneFn)
}

// remoteDone charges a cacheless transaction and carries on with the
// next word.
//
//ksr:hotpath
func (a *accessChain) remoteDone() {
	p := a.p
	c := p.cell
	lat := p.sp.Now() - a.start
	c.mon.RemoteAccesses++
	c.mon.RingTime += lat
	if fn := p.m.prof.Access; fn != nil {
		fn(c.id, prof.PhaseMemory, lat)
	}
	a.landed()
	a.run()
}

// SetSubCacheBypass selectively turns sub-caching on or off for this
// processor's subsequent data accesses — the architectural mechanism the
// paper notes exists on the KSR-1 but had no language-level support
// ("the ability to selectively turn off sub-caching would help in a
// better use of the sub-cache depending on the access pattern"). With the
// bypass on, accesses are served at local-cache latency and never claim
// sub-cache blocks, so streaming data stops evicting a kernel's hot
// working set.
func (p *Proc) SetSubCacheBypass(on bool) {
	p.requireCoherent("SetSubCacheBypass")
	p.bypassSub = on
}

// PrefetchSub issues the paper's wished-for second prefetch flavour —
// local cache into sub-cache ("it would be beneficial to have some
// prefetching mechanism from the local-cache to the sub-cache, given that
// there is roughly an order of magnitude difference between their access
// times"). The sub-block containing addr is filled asynchronously after
// one local-cache access time; the issuing processor continues
// immediately. The sub-page must already be valid in the local cache —
// otherwise the instruction is a no-op, like a mis-aimed prefetch.
//
//lint:ignore ksrlint/deadapi the sub-cache prefetch ablation (DESIGN.md X4) runs it from go test -bench=Ablation
func (p *Proc) PrefetchSub(addr memory.Addr) {
	p.requireCoherent("PrefetchSub")
	p.chargeCycles(1)
	if !p.m.dir.HasValid(p.cell.id, addr.SubPage()) {
		return
	}
	c := p.cell
	p.m.eng.Schedule(sim.Time(p.m.cfg.LocalCacheReadCycles)*p.m.cfg.CPUCycle, func() {
		c.sub.Touch(addr)
	})
}

// Read performs a timed read of the word at addr.
func (p *Proc) Read(addr memory.Addr) {
	p.accessRange(addr, 1, 0, false)
}

// Write performs a timed write of the word at addr.
func (p *Proc) Write(addr memory.Addr) {
	p.accessRange(addr, 1, 0, true)
}

// ReadWord performs a timed read and returns the stored value.
func (p *Proc) ReadWord(addr memory.Addr) uint64 {
	p.Read(addr)
	return p.m.space.ReadWord(addr)
}

// WriteWord performs a timed write of v to addr. The stored value becomes
// globally visible at the moment write ownership is granted (before the
// writer's own cache-fill cycles are charged) — otherwise a spinner woken
// by the invalidation could re-read the old value during the writer's fill
// and miss the update forever.
func (p *Proc) WriteWord(addr memory.Addr, v uint64) {
	a := p.accessor()
	a.begin(addr, 1, 0, true, nil)
	a.store, a.val = true, v
	p.Run(a.runFn)
}

// ReadRange performs count timed reads starting at base with the given
// byte stride, batching local cycle charges into single Sleep calls so
// that large kernel sweeps cost one simulation event per fabric
// transaction rather than one per element.
func (p *Proc) ReadRange(base memory.Addr, count, stride int64) {
	p.accessRange(base, count, stride, false)
}

// WriteRange is the write analogue of ReadRange.
func (p *Proc) WriteRange(base memory.Addr, count, stride int64) {
	p.accessRange(base, count, stride, true)
}

func (p *Proc) accessRange(base memory.Addr, count, stride int64, write bool) {
	a := p.accessor()
	a.begin(base, count, stride, write, nil)
	p.Run(a.runFn)
}

// AcquireSubPage executes get_sub_page on the sub-page holding addr until
// it succeeds: acquire it in atomic (locked-exclusive) state. Contention
// behaves like the hardware: every waiter retries on each release, pays a
// full ring transit per failed attempt, and there is no FCFS guarantee —
// only the ring's forward progress. Requires a coherent machine.
func (p *Proc) AcquireSubPage(addr memory.Addr) {
	p.requireCoherent("AcquireSubPage")
	// The whole retry loop is one chain. A fail-stop that comes due
	// between attempts ends it early, and the cell halts here, in its own
	// goroutine.
	for {
		p.checkFailStop()
		if p.runGSP(addr) {
			break
		}
	}
	p.fillAtomic(addr)
}

// runGSP runs get_sub_page attempts on addr's sub-page as one chain until
// one succeeds, and reports whether the sub-page was acquired: false
// when the cell's fail-stop came due between attempts.
func (p *Proc) runGSP(addr memory.Addr) bool {
	g := &p.gsp
	if g.p == nil {
		g.p = p
		g.attemptFn, g.doneFn, g.waitedFn = g.attempt, g.done, g.waited
	}
	g.sp, g.ok = addr.SubPage(), false
	p.sp.Run(g.attemptFn)
	return g.ok
}

// fillAtomic fills the caches with an acquired sub-page, which arrives
// with the atomic grant.
func (p *Proc) fillAtomic(addr memory.Addr) {
	_, ev := p.cell.local.Touch(addr)
	p.handleEvictions(ev)
	p.cell.sub.Touch(addr)
}

// attempt issues one get_sub_page, unless the cell's fail-stop has come
// due: then the chain ends and AcquireSubPage halts the cell.
//
//ksr:hotpath
func (g *gspChain) attempt() {
	p := g.p
	if p.failStopDue() {
		return
	}
	g.ver = p.m.dir.Version(g.sp)
	p.m.dir.GetSubPageThen(p.sp, p.cell.id, g.sp, g.doneFn)
}

// done charges an attempt's transit. A success ends the chain; a failure
// waits for the sub-page to change before the next attempt.
//
//ksr:hotpath
func (g *gspChain) done(ok bool, lat sim.Time) {
	p := g.p
	c := p.cell
	c.mon.RemoteAccesses++
	c.mon.RingTime += lat
	if fn := p.m.prof.Access; fn != nil {
		fn(c.id, prof.PhaseMemory, lat)
	}
	if ok {
		g.ok = true
		return
	}
	c.mon.GSPRetries++
	g.start = p.sp.Now()
	p.m.dir.WaitChangeThen(p.sp, g.sp, g.ver, g.waitedFn)
}

// waited charges the wait for the atomic holder's release as lock time
// and retries.
//
//ksr:hotpath
func (g *gspChain) waited() {
	p := g.p
	if fn := p.m.prof.Charge; fn != nil {
		fn(p.cell.id, prof.PhaseLock, p.sp.Now()-g.start)
	}
	g.attempt()
}

// ReleaseSubPage executes release_sub_page on the sub-page holding addr.
func (p *Proc) ReleaseSubPage(addr memory.Addr) {
	p.requireCoherent("ReleaseSubPage")
	lat := p.m.dir.ReleaseSubPage(p.sp, p.cell.id, addr.SubPage())
	p.cell.mon.RemoteAccesses++
	p.cell.mon.RingTime += lat
	if fn := p.m.prof.Access; fn != nil {
		fn(p.cell.id, prof.PhaseMemory, lat)
	}
}

// FetchAdd atomically adds delta to the word at addr and returns the
// previous value. On the KSR machines it is built from get_sub_page (the
// paper's footnote: "implemented using the get_sub_page primitive"); on
// the cacheless butterfly it is a single remote memory operation, as on
// the real BBN machine.
func (p *Proc) FetchAdd(addr memory.Addr, delta uint64) uint64 {
	if p.m.cfg.Coherent {
		p.AcquireSubPage(addr)
		old := p.ReadWord(addr)
		p.WriteWord(addr, old+delta)
		p.ReleaseSubPage(addr)
		return old
	}
	home := p.m.homeOf(addr)
	lat := p.m.fab.Access(p.sp, p.cell.id, home, addr)
	p.cell.mon.RemoteAccesses++
	p.cell.mon.RingTime += lat
	if fn := p.m.prof.Access; fn != nil {
		fn(p.cell.id, prof.PhaseMemory, lat)
	}
	old := p.m.space.ReadWord(addr)
	p.m.space.WriteWord(addr, old+delta)
	return old
}

// FetchStore atomically exchanges the word at addr with v, returning the
// previous value (the swap primitive queue locks are built on). On KSR
// machines it is synthesized from get_sub_page; on the butterfly it is
// one remote operation at the home module.
func (p *Proc) FetchStore(addr memory.Addr, v uint64) uint64 {
	if p.m.cfg.Coherent {
		p.AcquireSubPage(addr)
		old := p.ReadWord(addr)
		p.WriteWord(addr, v)
		p.ReleaseSubPage(addr)
		return old
	}
	home := p.m.homeOf(addr)
	lat := p.m.fab.Access(p.sp, p.cell.id, home, addr)
	p.cell.mon.RemoteAccesses++
	p.cell.mon.RingTime += lat
	if fn := p.m.prof.Access; fn != nil {
		fn(p.cell.id, prof.PhaseMemory, lat)
	}
	old := p.m.space.ReadWord(addr)
	p.m.space.WriteWord(addr, v)
	return old
}

// CompareAndSwap atomically replaces the word at addr with new if it
// currently holds old, reporting success.
func (p *Proc) CompareAndSwap(addr memory.Addr, old, new uint64) bool {
	if p.m.cfg.Coherent {
		p.AcquireSubPage(addr)
		cur := p.ReadWord(addr)
		ok := cur == old
		if ok {
			p.WriteWord(addr, new)
		}
		p.ReleaseSubPage(addr)
		return ok
	}
	home := p.m.homeOf(addr)
	lat := p.m.fab.Access(p.sp, p.cell.id, home, addr)
	p.cell.mon.RemoteAccesses++
	p.cell.mon.RingTime += lat
	if fn := p.m.prof.Access; fn != nil {
		fn(p.cell.id, prof.PhaseMemory, lat)
	}
	if p.m.space.ReadWord(addr) != old {
		return false
	}
	p.m.space.WriteWord(addr, new)
	return true
}

// SpinUntilAtLeast reads the word at addr until it holds at least min and
// returns the value that did. The flags and counters synchronization
// spins on only ever grow (epochs, tickets, pass numbers; a raised flag
// is 1), so "at least" covers every spin, and a data-only threshold lets
// the whole spin run as one continuation chain. On a coherent machine
// the spin runs entirely in the cell's own caches — zero network traffic
// — and rereads when the sub-page is invalidated or updated, exactly
// like hardware spinning on a cached flag. On the cacheless butterfly
// every poll is a network access to the flag's home module (the reason
// the paper says global-flag wakeup "cannot be used" there).
func (p *Proc) SpinUntilAtLeast(addr memory.Addr, min uint64) uint64 {
	return p.runSpin(addr, 1, min)
}

// SpinUntilAllAtLeast spins until each of the n consecutive words
// starting at addr holds at least min. The words must all lie in one
// sub-page: it is the multi-word form of SpinUntilAtLeast, used by the
// MCS barrier's packed child-notready words.
func (p *Proc) SpinUntilAllAtLeast(addr memory.Addr, n int, min uint64) {
	if n < 1 {
		panic(fmt.Sprintf("machine: SpinUntilAllAtLeast needs at least one word, got %d", n))
	}
	if addr.SubPage() != (addr + memory.Addr(n*memory.WordSize) - 1).SubPage() {
		panic("machine: SpinUntilAllAtLeast range crosses a sub-page boundary")
	}
	p.runSpin(addr, n, min)
}

// runSpin runs a spin on n words from addr as one chain and returns the
// first word's final value.
func (p *Proc) runSpin(addr memory.Addr, n int, min uint64) uint64 {
	s := &p.spin
	if s.p == nil {
		s.bind(p)
	}
	if cap(s.words) < n {
		s.grow(n)
	}
	s.addr, s.min, s.words = addr, min, s.words[:n]
	p.Run(s.readFn)
	return s.words[0]
}

// bind sets up the spin record's steps on the Proc's first spin.
//
//ksr:coldpath once per processor
func (s *spinChain) bind(p *Proc) {
	s.p = p
	s.readFn, s.readRestFn = s.read, s.readRest
	s.comparedFn, s.waitedFn = s.compared, s.waited
}

// grow makes room for the values of an n-word spin.
//
//ksr:coldpath once per processor and spin width
func (s *spinChain) grow(n int) {
	s.words = make([]uint64, n)
}

// read snapshots the sub-page's version on a coherent machine, so no
// change after it can be missed, then reads the first word through the
// access chain.
//
//ksr:hotpath
func (s *spinChain) read() {
	p := s.p
	if p.m.cfg.Coherent {
		s.ver = p.m.dir.Version(s.addr.SubPage())
	}
	a := p.accessor()
	a.begin(s.addr, 1, 0, false, s.readRestFn)
	a.run()
}

// readRest captures the first word, whose read has completed, then reads
// the others, if any, capturing each value when its access completes,
// and carries on to the compare.
//
//ksr:hotpath
func (s *spinChain) readRest() {
	p := s.p
	s.words[0] = p.m.space.ReadWord(s.addr)
	a := &p.acc
	a.begin(s.addr+memory.WordSize, int64(len(s.words)-1), memory.WordSize, false, s.comparedFn)
	a.vals = s.words[1:]
	a.run()
}

// compared ends the chain once every word has reached the threshold.
// Otherwise a coherent machine waits for the sub-page to change, and a
// cacheless one sleeps out the poll gap between two remote probes; the
// gap begins at an instruction boundary, where a fail-stop that has come
// due ends the chain.
//
//ksr:hotpath
func (s *spinChain) compared() {
	if s.reached() {
		return
	}
	p := s.p
	if p.m.cfg.Coherent {
		s.start = p.sp.Now()
		p.m.dir.WaitChangeThen(p.sp, s.addr.SubPage(), s.ver, s.waitedFn)
		return
	}
	if p.failStopDue() {
		p.halting = true
		return
	}
	p.sp.SleepThen(p.cycleTime(20, prof.PhaseOther), s.readFn)
}

// reached reports whether every word has reached the threshold.
//
//ksr:hotpath
func (s *spinChain) reached() bool {
	for _, v := range s.words {
		if v < s.min {
			return false
		}
	}
	return true
}

// waited charges the wait for the sub-page to change and rereads.
//
//ksr:hotpath
func (s *spinChain) waited() {
	p := s.p
	if fn := p.m.prof.Charge; fn != nil {
		// Flag-spin wait outside any synchronization span: other.
		fn(p.cell.id, prof.PhaseOther, p.sp.Now()-s.start)
	}
	s.read()
}

// Poststore executes the poststore instruction for the sub-page holding
// addr: the issuing processor stalls only until the update reaches its
// local cache, then the new value circulates asynchronously, filling every
// place-holder. The sub-page is left shared — the issuer pays an upgrade
// on its next write, the interaction that made poststore a loss for SP.
// On a non-coherent machine it is a no-op.
func (p *Proc) Poststore(addr memory.Addr) {
	if !p.m.cfg.Coherent {
		return
	}
	a := p.accessor()
	count := int64(1)
	if p.m.dir.IsWritable(p.cell.id, addr.SubPage()) {
		count = 0
	}
	a.begin(addr, count, 0, true, nil)
	a.extra = p.m.cfg.LocalCacheWriteCycles // stall: write-through to local cache
	p.Run(a.runFn)
	p.cell.mon.Poststores++
	p.m.dir.Poststore(p.cell.id, addr.SubPage(), nil)
}

// Prefetch issues the prefetch instruction: fetch the sub-page holding
// addr into the local cache without blocking. A later demand access that
// beats the fill joins it instead of paying a second transaction. On a
// non-coherent machine it is a no-op (the BBN has no caches to fetch
// into).
//
//lint:ignore ksrlint/deadapi TestGoldenFaultTrace drives it; PrefetchRange charges its cycle after the issue, not before, so it would change that golden
func (p *Proc) Prefetch(addr memory.Addr) {
	if !p.m.cfg.Coherent {
		return
	}
	p.chargeCycles(1) // issue slot
	p.cell.mon.Prefetches++
	cellID := p.cell.id
	local := p.cell.local
	dir := p.m.dir
	m := p.m
	dir.Prefetch(cellID, addr.SubPage(), func() {
		_, ev := local.Touch(addr)
		if ev != nil {
			for _, u := range ev.Present {
				base := local.TransferUnitBase(u)
				dir.Drop(cellID, base.SubPage())
				m.cells[cellID].sub.PurgeRange(base, memory.SubPageSize)
			}
		}
	})
}

// PrefetchRange issues prefetches for every sub-page overlapping
// [base, base+size), charging the issue cost as one batch so that large
// slab prefetches (the SP optimization) cost one simulation event plus one
// ring transaction per genuinely remote sub-page.
func (p *Proc) PrefetchRange(base memory.Addr, size int64) {
	if !p.m.cfg.Coherent {
		return
	}
	first := int64(base) / memory.SubPageSize * memory.SubPageSize
	issued := int64(0)
	for a := first; a < int64(base)+size; a += memory.SubPageSize {
		addr := memory.Addr(a)
		issued++
		p.cell.mon.Prefetches++
		cellID := p.cell.id
		local := p.cell.local
		dir := p.m.dir
		m := p.m
		dir.Prefetch(cellID, addr.SubPage(), func() {
			_, ev := local.Touch(addr)
			if ev != nil {
				for _, u := range ev.Present {
					b := local.TransferUnitBase(u)
					dir.Drop(cellID, b.SubPage())
					m.cells[cellID].sub.PurgeRange(b, memory.SubPageSize)
				}
			}
		})
	}
	if issued > 0 {
		p.chargeCycles(issued)
	}
}

func (p *Proc) requireCoherent(op string) {
	if !p.m.cfg.Coherent {
		panic(fmt.Sprintf("machine: %s requires a coherent machine (%s is not)",
			op, p.m.cfg.Name))
	}
}

// homeOf returns the home module of addr on a NUMA fabric.
func (m *Machine) homeOf(addr memory.Addr) int {
	return int(uint64(addr.SubPage()) % uint64(m.cfg.Cells))
}
