// Package coherence implements the KSR-1 ALLCACHE invalidation-based
// coherence protocol at sub-page (128 B) granularity.
//
// Each sub-page is in one of four states — invalid, shared, exclusive, or
// atomic — tracked by a directory of holder cells. The directory is a
// modelling convenience: on the real machine the state is distributed and
// requests circulate the ring until a holder responds, but because a
// unidirectional ring makes every remote access cost one rotation
// regardless of responder position, a central directory that picks the
// responder and charges one fabric transaction is timing-equivalent.
//
// The protocol models the machine's distinguishing features explicitly:
//
//   - read-snarfing: a read response passing invalidated place-holders
//     revalidates them;
//   - get_sub_page / release_sub_page: the atomic state, which fails (not
//     queues) a second acquirer;
//   - poststore: an asynchronous update broadcast that fills place-holders
//     while the issuing processor continues, leaving the sub-page shared;
//   - prefetch: an asynchronous fetch into the local cache.
package coherence

import (
	"fmt"
	"math/bits"
	"sort"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

// State is a sub-page coherence state as observed globally.
type State int

const (
	// Invalid: no cell holds a valid copy (possible after capacity
	// evictions; the data itself survives in the backing store).
	Invalid State = iota
	// Shared: one or more cells hold read-only copies.
	Shared
	// Exclusive: exactly one cell holds a writable copy.
	Exclusive
	// Atomic: like Exclusive, plus get_sub_page requests by others fail
	// until release_sub_page.
	Atomic
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	case Atomic:
		return "atomic"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Stats holds protocol counters.
type Stats struct {
	ReadFetches   uint64 // remote read transactions
	WriteFetches  uint64 // remote write/upgrade transactions
	Invalidations uint64 // holder copies invalidated
	Snarfs        uint64 // place-holders revalidated by passing reads
	GSPAttempts   uint64
	GSPFailures   uint64
	Releases      uint64
	Poststores    uint64
	PoststoreFill uint64 // place-holders filled by poststores
	Prefetches    uint64
	Drops         uint64 // capacity evictions reported by caches

	// Fault-injection aftermath: how often the protocol absorbed an
	// injected NACK and retried, and the simulated time lost backing off.
	NACKs       uint64
	Retries     uint64
	BackoffTime sim.Time
	MaxRetryRun int // deepest consecutive retry run of one request
}

// bitset is a sparse, grow-on-demand set of cell ids. A nil bitset is an
// empty set: entries for sub-pages that only ever see a few low-numbered
// cells never allocate the full cells/64 words, which at 1088 cells is
// the difference between 4×17 words per directory entry up front and a
// couple of words on demand.
type bitset []uint64

func (b *bitset) set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (i & 63)
}
func (b bitset) clear(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << (i & 63)
	}
}
func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}
func (b bitset) lowest() int {
	for wi, w := range b {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// entry is the directory record for one sub-page.
type entry struct {
	holders      bitset // cells with a valid copy
	placeholders bitset // cells with an allocated but invalidated copy
	owner        int    // exclusive/atomic owner, -1 if none
	atomic       bool
	version      uint64    // bumped on every invalidation or update
	cond         *sim.Cond // watchers: spinners and gsp retriers
	prefetching  bitset    // cells with an in-flight prefetch

	// Read combining: while a read fetch is circulating, later readers
	// join it and are filled by the passing response (ring snarfing)
	// instead of issuing duplicate transactions. A counter rather than a
	// flag: with snarfing disabled (ablation) several reads can overlap.
	readsInFlight int
	snarfJoin     bitset

	// Write serialization: ownership moves through one transaction at a
	// time — a second writer's request cannot complete until the data has
	// landed at the previous winner. Concurrent writers therefore take
	// turns, one full ring transit each: the physical source of the
	// false-sharing cost the paper charges against the MCS barrier.
	writeInFlight bool
}

// Directory is the global coherence state for one machine.
type Directory struct {
	eng   *sim.Engine
	fab   fabric.Fabric
	cells int

	// fabAccessThen is fab.AccessThen, bound once: steps call it as a
	// plain function value, and ksrlint/hotalloc checks each fabric's
	// AccessThen where it is declared.
	fabAccessThen func(p *sim.Process, src, dst int, addr memory.Addr, done func())
	txs           []*dirTx // per-process synchronous transactions, by process id

	entries map[memory.SubPageID]*entry
	stats   Stats

	// slab is the carve source for new entries: one allocation per
	// entrySlabSize sub-pages instead of one per sub-page, since a big
	// NAS-kernel run touches hundreds of thousands of them.
	slab []entry

	// idScratch backs the sorted-ID snapshot in CheckInvariants, reused
	// across calls — checked-mode sweeps run after every experiment, and
	// the per-call allocation showed up on the large-machine profile.
	idScratch []memory.SubPageID

	// OnInvalidate, if set, is called whenever a cell's valid copy is
	// invalidated (the machine uses it to purge the cell's sub-cache).
	OnInvalidate func(cell int, sp memory.SubPageID)

	// SameDomain, if set, reports whether two cells share a leaf ring.
	// Transactions that must touch copies outside the requester's domain
	// route their response through a cell there, paying the level-1 ring.
	// Nil means a single communication domain.
	SameDomain func(a, b int) bool

	// DisableSnarfing turns off read-snarfing (place-holder refill and
	// read combining), for the ablation study of how much the feature
	// buys the global-wakeup-flag barriers. The real machine always
	// snarfs; this exists to quantify the design choice.
	DisableSnarfing bool

	// Faults, if set, injects transient NACKs into protocol transactions:
	// a NACKed request pays the full transit, backs off exponentially in
	// simulated time, and retries. Consecutive NACKs of one request are
	// bounded by the injector's MaxRetries, so every retry loop is
	// finite. Nil disables injection.
	Faults *faults.Injector

	// Checked enables the invariant checker: after every protocol state
	// change the affected entry is validated (single writable owner,
	// holder/place-holder disjointness, no valid copy surviving an
	// invalidation, bounded retries) and the first violation is recorded.
	// CheckInvariants or Violation surfaces it.
	Checked   bool
	violation *InvariantError

	// Obs, if set, receives coherence trace events (fills, invalidations,
	// NACK/retry, atomic sub-page transitions). The machine layer only
	// sets it when the recorder's coh category is enabled, so the
	// disabled cost is one nil check per protocol action.
	Obs *obs.Recorder

	// Prof is the simulated-time profiler's directory surface, held by
	// value (all-nil = unprofiled): NACK backoff sleeps are reported per
	// requesting cell so the profiler can give retry storms their own
	// phase instead of folding them into memory-stall time.
	Prof prof.DirHooks
}

// crossDomainTarget returns a cell from the affected set that lies outside
// cell's domain, or -1 if none does (or no topology is configured). It
// scans set bits word-at-a-time, in ascending cell order.
func (d *Directory) crossDomainTarget(cell int, affected bitset) int {
	if d.SameDomain == nil {
		return -1
	}
	for wi, w := range affected {
		for ; w != 0; w &= w - 1 {
			if c := wi<<6 + bits.TrailingZeros64(w); !d.SameDomain(cell, c) {
				return c
			}
		}
	}
	return -1
}

// NewDirectory creates the directory for a machine with the given fabric.
func NewDirectory(e *sim.Engine, fab fabric.Fabric) *Directory {
	return &Directory{
		eng:           e,
		fab:           fab,
		fabAccessThen: fab.AccessThen,
		cells:         fab.Nodes(),
		entries:       make(map[memory.SubPageID]*entry),
	}
}

// entrySlabSize is how many directory entries one slab allocation holds.
const entrySlabSize = 256

func (d *Directory) get(sp memory.SubPageID) *entry {
	if en := d.entries[sp]; en != nil {
		return en
	}
	return d.newEntry(sp)
}

// newEntry carves sp's directory record from the slab on first touch.
//
//ksr:coldpath once per sub-page
func (d *Directory) newEntry(sp memory.SubPageID) *entry {
	if len(d.slab) == 0 {
		d.slab = make([]entry, entrySlabSize)
	}
	en := &d.slab[0]
	d.slab = d.slab[1:]
	en.owner = -1 // bitsets start nil (empty) and grow on demand
	d.entries[sp] = en
	return en
}

// Footprint estimates the heap bytes the directory currently holds:
// entry records (at slab granularity, counting the map's per-key
// overhead) plus every grown bitset. It feeds the bytes_per_cell metric
// that ksrsim bench reports and CI gates on.
func (d *Directory) Footprint() int64 {
	const entryBytes = int64(unsafe.Sizeof(entry{}))
	const mapSlotBytes = 48 // ballpark per-key map overhead (key, pointer, bucket share)
	var words int64
	for _, en := range d.entries {
		// Integer accumulation over an unordered map is order-independent.
		words += int64(len(en.holders) + len(en.placeholders) + len(en.prefetching) + len(en.snarfJoin))
	}
	n := int64(len(d.entries))
	return n*(entryBytes+mapSlotBytes) + words*8
}

func (d *Directory) condOf(en *entry, sp memory.SubPageID) *sim.Cond {
	if en.cond == nil {
		en.cond = d.newCond(sp)
	}
	return en.cond
}

// newCond creates the watcher cond of sp on its first wait.
//
//ksr:coldpath once per watched sub-page
func (d *Directory) newCond(sp memory.SubPageID) *sim.Cond {
	return sim.NewCond(d.eng, fmt.Sprintf("subpage %d", uint64(sp)))
}

// Stats returns cumulative protocol counters.
func (d *Directory) Stats() Stats { return d.stats }

// Entries returns the number of sub-pages the directory tracks — its
// occupancy, sampled by the telemetry collector.
func (d *Directory) Entries() int { return len(d.entries) }

// dirTx is one process's synchronous protocol transaction, run as a
// chain of continuation steps (see sim.Process.Run): a fabric round trip
// with NACK retries, on its own or inside a get_sub_page attempt or a
// fill, or a wait for a sub-page's version to change. A process runs at
// most one at a time, so each keeps one record, with the step method
// values bound once.
type dirTx struct {
	d *Directory
	p *sim.Process

	// One protocol transaction (accessThen).
	src, dst int
	addr     memory.Addr
	attempt  int
	start    sim.Time
	lat      sim.Time // latency of the last completed transaction
	accessed func()   // continuation once it lands, nil ends the chain

	// The requesting cell and sub-page of the current fill, get_sub_page
	// attempt or version wait.
	cell int
	sp   memory.SubPageID
	en   *entry

	// A get_sub_page attempt (GetSubPageThen).
	gspDone func(ok bool, lat sim.Time)

	// A version wait (WaitChangeThen).
	since   uint64
	changed func()

	// A fill (EnsureReadableThen, EnsureWritableThen).
	fillStart sim.Time // origin of the latency the fill reports
	remote    bool     // the fill went on the fabric
	filled    func(lat sim.Time, remote bool)

	landedFn       func()
	retryFn        func()
	gspLandedFn    func()
	recheckFn      func()
	prefetchWaitFn func()
	writeWaitedFn  func()
	snarfWaitFn    func()
	readLandedFn   func()
	writeCheckFn   func()
	writeLandedFn  func()
}

// tx returns p's transaction record.
func (d *Directory) tx(p *sim.Process) *dirTx {
	if id := p.ID(); id < len(d.txs) && d.txs[id] != nil {
		return d.txs[id]
	}
	return d.newTx(p)
}

// newTx creates p's transaction record on its first synchronous
// transaction; every later one reuses it.
//
//ksr:coldpath once per process
func (d *Directory) newTx(p *sim.Process) *dirTx {
	for len(d.txs) <= p.ID() {
		d.txs = append(d.txs, nil)
	}
	t := &dirTx{d: d, p: p}
	t.landedFn, t.retryFn, t.gspLandedFn, t.recheckFn = t.landed, t.retry, t.gspLanded, t.recheck
	t.prefetchWaitFn, t.writeWaitedFn, t.snarfWaitFn = t.prefetchWait, t.writeWaited, t.snarfWait
	t.readLandedFn, t.writeCheckFn, t.writeLandedFn = t.readLanded, t.writeCheck, t.writeLanded
	d.txs[p.ID()] = t
	return t
}

// access performs one synchronous protocol transaction for p and returns
// the total latency the requester observed, retries and backoff
// included: accessThen run to completion.
func (d *Directory) access(p *sim.Process, src, dst int, addr memory.Addr) sim.Time {
	t := d.tx(p)
	p.Run(func() { d.accessThen(t, src, dst, addr, nil) })
	return t.lat
}

// accessThen performs one protocol transaction for t's process as a
// chain, absorbing injected NACKs: each NACK costs the full transit
// already paid plus an exponential backoff in simulated time before the
// retry circulates again. The retries are finite because the injector
// never NACKs one request more than MaxRetries times in a row. done runs
// once the transaction lands, with t.lat set.
//
//ksr:hotpath
func (d *Directory) accessThen(t *dirTx, src, dst int, addr memory.Addr, done func()) {
	t.src, t.dst, t.addr, t.accessed = src, dst, addr, done
	t.start = d.eng.Now()
	t.attempt = 0
	d.fabAccessThen(t.p, src, dst, addr, t.landedFn)
}

// landed completes the transaction, or backs off after a NACK.
//
//ksr:hotpath
func (t *dirTx) landed() {
	d := t.d
	if !d.Faults.NACK(t.attempt) {
		if t.attempt > d.stats.MaxRetryRun {
			d.stats.MaxRetryRun = t.attempt
		}
		t.lat = d.eng.Now() - t.start
		done := t.accessed
		t.accessed = nil
		if done != nil {
			done()
		}
		return
	}
	d.stats.NACKs++
	d.stats.Retries++
	delay := d.Faults.Backoff(t.attempt)
	d.stats.BackoffTime += delay
	if d.Obs != nil {
		d.traceNACK(t.src, t.attempt, delay)
	}
	if fn := d.Prof.Backoff; fn != nil {
		fn(t.src, delay)
	}
	t.p.SleepThen(delay, t.retryFn)
}

// retry re-issues a NACKed transaction after its backoff.
//
//ksr:hotpath
func (t *dirTx) retry() {
	t.attempt++
	t.d.fabAccessThen(t.p, t.src, t.dst, t.addr, t.landedFn)
}

// traceNACK records an absorbed NACK.
//
//ksr:coldpath tracing only: reached when the coh category is armed
func (d *Directory) traceNACK(src, attempt int, delay sim.Time) {
	d.Obs.Instant(obs.CatCoh, src, "nack",
		obs.Arg{Key: "attempt", Val: int64(attempt)}, obs.Arg{Key: "backoff_ns", Val: int64(delay)})
}

// accessAsync is the fire-and-forget analogue of access, used by
// poststore and prefetch: a dropped (NACKed) packet is re-issued after
// the same exponential backoff, scheduled on the engine since no process
// waits on it.
func (d *Directory) accessAsync(src, dst int, addr memory.Addr, done func()) {
	attempt := 0
	var try func()
	try = func() {
		d.fab.AccessAsync(src, dst, addr, func() {
			if d.Faults.NACK(attempt) {
				d.stats.NACKs++
				d.stats.Retries++
				delay := d.Faults.Backoff(attempt)
				d.stats.BackoffTime += delay
				if d.Obs != nil {
					d.Obs.Instant(obs.CatCoh, src, "nack.async",
						obs.Arg{Key: "attempt", Val: int64(attempt)}, obs.Arg{Key: "backoff_ns", Val: int64(delay)})
				}
				attempt++
				d.eng.Schedule(delay, try)
				return
			}
			if attempt > d.stats.MaxRetryRun {
				d.stats.MaxRetryRun = attempt
			}
			done()
		})
	}
	try()
}

// InvariantError reports a violated protocol invariant: which sub-page,
// when, and what broke.
type InvariantError struct {
	SubPage memory.SubPageID
	At      sim.Time
	Desc    string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("coherence: invariant violated at t=%v on sub-page %d: %s",
		e.At, uint64(e.SubPage), e.Desc)
}

// invariantErr builds the error for a violated invariant.
//
//ksr:coldpath error route
func (d *Directory) invariantErr(sp memory.SubPageID, format string, args ...any) *InvariantError {
	return &InvariantError{SubPage: sp, At: d.eng.Now(), Desc: fmt.Sprintf(format, args...)}
}

// checkEntry validates one directory entry against the protocol
// invariants. It returns nil when the entry is consistent.
func (d *Directory) checkEntry(sp memory.SubPageID, en *entry) *InvariantError {
	n := len(en.holders)
	if len(en.placeholders) < n {
		n = len(en.placeholders)
	}
	for wi := 0; wi < n; wi++ {
		if both := en.holders[wi] & en.placeholders[wi]; both != 0 {
			return d.invariantErr(sp, "cell %d is simultaneously a holder and a place-holder",
				wi<<6+bits.TrailingZeros64(both))
		}
	}
	if en.owner >= d.cells {
		return d.invariantErr(sp, "owner %d out of range", en.owner)
	}
	if en.atomic && en.owner < 0 {
		return d.invariantErr(sp, "atomic state with no owner")
	}
	// Exactly-one-exclusive-owner: a writable (exclusive or atomic) copy
	// belongs to the recorded owner, the owner's copy is valid, and no
	// other writable copy can exist because IsWritable additionally
	// requires being the sole holder.
	if en.owner >= 0 && !en.holders.has(en.owner) {
		return d.invariantErr(sp, "owner %d holds no valid copy (%d holders)", en.owner, en.holders.count())
	}
	if en.readsInFlight < 0 {
		return d.invariantErr(sp, "negative reads-in-flight counter %d", en.readsInFlight)
	}
	return nil
}

// record stores the first violation seen in checked mode.
func (d *Directory) record(err *InvariantError) {
	if err != nil && d.violation == nil {
		d.violation = err
	}
}

// checkpoint validates sp's entry if checked mode is on. Protocol
// methods call it after every state change they complete.
func (d *Directory) checkpoint(sp memory.SubPageID, en *entry) {
	if !d.Checked {
		return
	}
	d.record(d.checkEntry(sp, en))
}

// CheckInvariants sweeps every directory entry and validates the
// protocol invariants, including any violation recorded earlier in
// checked mode and the retry bound. It returns the first failure in
// sub-page order, or nil when the directory is consistent.
func (d *Directory) CheckInvariants() error {
	if d.violation != nil {
		return d.violation
	}
	ids := d.idScratch[:0]
	for sp := range d.entries {
		ids = append(ids, sp)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	d.idScratch = ids
	for _, sp := range ids {
		if err := d.checkEntry(sp, d.entries[sp]); err != nil {
			return err
		}
	}
	if max := d.Faults.MaxRetries(); d.stats.MaxRetryRun > max {
		return &InvariantError{At: d.eng.Now(),
			Desc: fmt.Sprintf("retry run of %d exceeds the bound %d", d.stats.MaxRetryRun, max)}
	}
	return nil
}

// StateOf returns the current global state of sp.
func (d *Directory) StateOf(sp memory.SubPageID) State {
	en := d.entries[sp]
	if en == nil || en.holders.empty() {
		return Invalid
	}
	if en.atomic {
		return Atomic
	}
	if en.owner >= 0 {
		return Exclusive
	}
	return Shared
}

// HolderCount returns how many cells hold valid copies of sp.
func (d *Directory) HolderCount(sp memory.SubPageID) int {
	en := d.entries[sp]
	if en == nil {
		return 0
	}
	return en.holders.count()
}

// HasValid reports whether cell holds a valid copy of sp.
func (d *Directory) HasValid(cell int, sp memory.SubPageID) bool {
	en := d.entries[sp]
	return en != nil && en.holders.has(cell)
}

// IsWritable reports whether cell may write sp without a transaction.
func (d *Directory) IsWritable(cell int, sp memory.SubPageID) bool {
	en := d.entries[sp]
	return en != nil && en.owner == cell && en.holders.has(cell) && en.holders.count() == 1
}

// Version returns the change counter of sp, used to close the wait/wake
// race in spin loops.
func (d *Directory) Version(sp memory.SubPageID) uint64 {
	en := d.entries[sp]
	if en == nil {
		return 0
	}
	return en.version
}

// WaitChangeThen parks p, inside p's Run step, until sp's version
// exceeds since; next (nil ends the chain) runs then — at once if it
// already does, so no wakeup can be lost.
//
//ksr:hotpath
func (d *Directory) WaitChangeThen(p *sim.Process, sp memory.SubPageID, since uint64, next func()) {
	t := d.tx(p)
	t.sp, t.en, t.since, t.changed = sp, d.get(sp), since, next
	t.recheck()
}

// recheck waits on the sub-page's watchers until its version moves past
// the one the waiter saw; a broadcast without a version change (a fill,
// a lost ownership race) parks it again.
//
//ksr:hotpath
func (t *dirTx) recheck() {
	if t.en.version <= t.since {
		t.d.condOf(t.en, t.sp).WaitThen(t.p, t.recheckFn)
		return
	}
	next := t.changed
	t.changed = nil
	if next != nil {
		next()
	}
}

// responder picks the cell that answers a request for sp from cell. With
// no holder anywhere (the copy migrated away after capacity evictions),
// the data is fetched from wherever it landed — on a unidirectional ring
// any position costs the same, so the neighbour stands in.
func (d *Directory) responder(en *entry, cell int) int {
	if en.owner >= 0 {
		return en.owner
	}
	if h := en.holders.lowest(); h >= 0 {
		return h
	}
	return (cell + 1) % d.cells
}

// invalidateOthers moves every holder except keep to place-holder state,
// bumping the version and waking watchers. Returns how many were
// invalidated.
func (d *Directory) invalidateOthers(en *entry, sp memory.SubPageID, keep int) int {
	n := 0
	for wi := range en.holders {
		// Snapshot the word: the loop clears bits in the word it walks.
		w := en.holders[wi]
		for ; w != 0; w &= w - 1 {
			c := wi<<6 + bits.TrailingZeros64(w)
			if c == keep {
				continue
			}
			en.holders.clear(c)
			en.placeholders.set(c)
			n++
			if d.OnInvalidate != nil {
				d.OnInvalidate(c, sp)
			}
		}
	}
	if n > 0 {
		d.stats.Invalidations += uint64(n)
		if d.Obs != nil {
			d.traceInv(keep, sp, n)
		}
	}
	if d.Checked {
		// No valid copy survives an invalidation: only keep may remain.
		for wi, w := range en.holders {
			if keep >= 0 && keep>>6 == wi {
				w &^= 1 << (keep & 63)
			}
			if w != 0 {
				d.record(d.invariantErr(sp, "cell %d's copy survived invalidation (keep=%d)",
					wi<<6+bits.TrailingZeros64(w), keep))
			}
		}
	}
	en.version++
	if en.cond != nil {
		en.cond.Broadcast()
	}
	return n
}

// traceInv records an invalidation of copies other than keep's.
//
//ksr:coldpath tracing only: reached when the coh category is armed
func (d *Directory) traceInv(keep int, sp memory.SubPageID, copies int) {
	d.Obs.Instant(obs.CatCoh, keep, "inv",
		obs.Arg{Key: "sp", Val: int64(sp)}, obs.Arg{Key: "copies", Val: int64(copies)})
}

// snarf revalidates every place-holder: a read response on the ring fills
// them in passing.
func (d *Directory) snarf(en *entry) {
	if d.DisableSnarfing {
		return
	}
	for wi := range en.placeholders {
		w := en.placeholders[wi]
		if w == 0 {
			continue
		}
		en.placeholders[wi] = 0
		for ; w != 0; w &= w - 1 {
			en.holders.set(wi<<6 + bits.TrailingZeros64(w))
			d.stats.Snarfs++
		}
	}
}

// EnsureReadableThen makes cell a valid holder of sp, inside p's Run
// step, charging p for the ring transaction when one is needed: done
// (nil ends the chain) receives the latency and whether the access went
// remote once cell holds a valid copy — at once if it already does.
//
// A cell with its own prefetch of sp in flight joins it rather than
// issuing a duplicate fetch. Otherwise it joins an in-flight read by
// another cell: the response circulating the ring fills this cell's copy
// in passing (read-snarfing). This is what makes a herd of spinners
// refetching a wakeup flag cost one transaction instead of P. If the
// joined fetch completes but the copy is immediately invalidated by a
// racing writer, the cell issues its own fetch. A read also queues
// behind an in-flight write: the request cannot be answered while
// ownership is in transit.
//
//ksr:hotpath
func (d *Directory) EnsureReadableThen(p *sim.Process, cell int, sp memory.SubPageID, done func(lat sim.Time, remote bool)) {
	t := d.tx(p)
	en := d.get(sp)
	t.cell, t.sp, t.en, t.filled = cell, sp, en, done
	if en.holders.has(cell) {
		t.fillDone(0, false)
		return
	}
	t.fillStart = d.eng.Now()
	if en.prefetching.has(cell) {
		t.prefetchWait()
		return
	}
	t.readJoin()
}

// prefetchWait waits for the cell's own in-flight prefetch to land. If
// the copy is gone again by then, the read starts over from the joins.
//
//ksr:hotpath
func (t *dirTx) prefetchWait() {
	d, en, cell := t.d, t.en, t.cell
	if en.prefetching.has(cell) && !en.holders.has(cell) {
		d.condOf(en, t.sp).WaitThen(t.p, t.prefetchWaitFn)
		return
	}
	if en.holders.has(cell) {
		t.fillDone(d.eng.Now()-t.fillStart, true)
		return
	}
	t.fillStart = d.eng.Now()
	t.readJoin()
}

// readJoin waits behind an in-flight write, joins an in-flight read, or,
// with neither circulating, issues the read fetch.
//
//ksr:hotpath
func (t *dirTx) readJoin() {
	d, en := t.d, t.en
	switch {
	case en.writeInFlight:
		d.condOf(en, t.sp).WaitThen(t.p, t.writeWaitedFn)
	case en.readsInFlight > 0 && !d.DisableSnarfing:
		en.snarfJoin.set(t.cell)
		t.snarfWait()
	default:
		t.fetchRead()
	}
}

// writeWaited ends a read's wait behind an in-flight write: the write's
// landing may have left the cell a copy.
//
//ksr:hotpath
func (t *dirTx) writeWaited() {
	if t.en.holders.has(t.cell) {
		t.fillDone(t.d.eng.Now()-t.fillStart, true)
		return
	}
	t.readJoin()
}

// snarfWait waits until the joined reads have landed or one of them
// filled the cell's copy in passing.
//
//ksr:hotpath
func (t *dirTx) snarfWait() {
	en, cell := t.en, t.cell
	if en.readsInFlight > 0 && !en.holders.has(cell) {
		t.d.condOf(en, t.sp).WaitThen(t.p, t.snarfWaitFn)
		return
	}
	en.snarfJoin.clear(cell)
	if en.holders.has(cell) {
		t.fillDone(t.d.eng.Now()-t.fillStart, true)
		return
	}
	t.readJoin()
}

// fetchRead issues the cell's own read transaction.
//
//ksr:hotpath
func (t *dirTx) fetchRead() {
	d, en := t.d, t.en
	d.stats.ReadFetches++
	en.readsInFlight++
	d.accessThen(t, t.cell, d.responder(en, t.cell), t.sp.Base(), t.readLandedFn)
}

// readLanded fills the cell's copy once its read response arrives, and
// every joiner and place-holder the response passes.
//
//ksr:hotpath
func (t *dirTx) readLanded() {
	d, en, cell := t.d, t.en, t.cell
	lat := t.lat
	en.readsInFlight--
	// Ownership dissolves on a read: exclusive/atomic data becomes shared
	// (the atomic lock itself, if held, stays with the owner).
	if en.owner >= 0 && !en.atomic {
		en.owner = -1
	}
	en.holders.set(cell)
	en.placeholders.clear(cell)
	// A read that finds no other copy installs the line exclusively (the
	// E-state optimization): private data becomes locally writable, which
	// is what lets the paper measure "local-cache write" latencies off the
	// ring.
	if en.owner < 0 && en.holders.count() == 1 && en.placeholders.empty() {
		en.owner = cell
	}
	// Fill joiners and place-holders as the response passes them.
	for wi := range en.snarfJoin {
		w := en.snarfJoin[wi]
		if w == 0 {
			continue
		}
		en.snarfJoin[wi] = 0
		for ; w != 0; w &= w - 1 {
			c := wi<<6 + bits.TrailingZeros64(w)
			if !en.holders.has(c) {
				en.holders.set(c)
				en.placeholders.clear(c)
				d.stats.Snarfs++
			}
		}
	}
	d.snarf(en)
	if en.cond != nil {
		en.cond.Broadcast()
	}
	if d.Obs != nil {
		d.traceReadFill(cell, t.sp, lat)
	}
	d.checkpoint(t.sp, en)
	t.fillDone(lat, true)
}

// traceReadFill records a read fill of latency lat.
//
//ksr:coldpath tracing only: reached when the coh category is armed
func (d *Directory) traceReadFill(cell int, sp memory.SubPageID, lat sim.Time) {
	d.Obs.CompleteAt(obs.CatCoh, cell, "fill.read", d.eng.Now()-lat, d.eng.Now(),
		obs.Arg{Key: "sp", Val: int64(sp)}, obs.Arg{Key: "state", Val: int64(d.StateOf(sp))})
}

// fillDone ends a fill, handing its latency and whether it went remote
// to the continuation.
//
//ksr:hotpath
func (t *dirTx) fillDone(lat sim.Time, remote bool) {
	done := t.filled
	t.filled = nil
	if done != nil {
		done(lat, remote)
	}
}

// EnsureWritableThen gives cell the sole writable copy of sp, inside p's
// Run step, charging p for the transaction when needed. Writes by a
// non-owner wait while the sub-page is atomic elsewhere. done (nil ends
// the chain) receives the latency, any time stalled on an atomic hold
// included, and whether the access went remote once cell holds the sole
// writable copy.
//
//ksr:hotpath
func (d *Directory) EnsureWritableThen(p *sim.Process, cell int, sp memory.SubPageID, done func(lat sim.Time, remote bool)) {
	t := d.tx(p)
	t.cell, t.sp, t.en, t.filled = cell, sp, d.get(sp), done
	t.fillStart = d.eng.Now()
	t.remote = false
	t.writeCheck()
}

// writeCheck queues a write behind any transaction already circulating
// for the sub-page — a read response it would race, or another write
// that ownership must land at first — and behind another cell's atomic
// hold, then issues the write transaction unless the cell already holds
// the sole writable copy. This serialization is what makes the MCS
// barrier's packed child word (4 writers alternating with the parent's
// spin refetches) cost up to 8 sequential ring transits per node — the
// paper's false-sharing analysis.
//
//ksr:hotpath
func (t *dirTx) writeCheck() {
	d, en, cell := t.d, t.en, t.cell
	if (en.atomic && en.owner != cell) || en.readsInFlight > 0 || en.writeInFlight {
		d.condOf(en, t.sp).WaitThen(t.p, t.writeCheckFn)
		return
	}
	if en.owner == cell && en.holders.has(cell) && en.holders.count() == 1 {
		d.checkpoint(t.sp, en)
		t.fillDone(d.eng.Now()-t.fillStart, t.remote)
		return
	}
	d.stats.WriteFetches++
	t.remote = true
	dst := d.responder(en, cell)
	// If any copy to invalidate lives on another leaf ring, the
	// transaction must traverse the level-1 ring to reach it.
	if x := d.crossDomainTarget(cell, en.holders); x >= 0 {
		dst = x
	}
	en.writeInFlight = true
	d.accessThen(t, cell, dst, t.sp.Base(), t.writeLandedFn)
}

// writeLanded takes ownership once the write transaction lands, unless
// another cell's get_sub_page won the ring race while the packet was in
// flight: then the write stalls and retries.
//
//ksr:hotpath
func (t *dirTx) writeLanded() {
	d, en, cell := t.d, t.en, t.cell
	en.writeInFlight = false
	if en.atomic && en.owner != cell {
		if en.cond != nil {
			en.cond.Broadcast()
		}
		t.writeCheck()
		return
	}
	d.invalidateOthers(en, t.sp, cell)
	en.holders.set(cell)
	en.placeholders.clear(cell)
	en.owner = cell
	if d.Obs != nil {
		d.traceWriteFill(cell, t.sp, t.fillStart)
	}
	d.checkpoint(t.sp, en)
	t.fillDone(d.eng.Now()-t.fillStart, true)
}

// traceWriteFill records a write fill that began at start.
//
//ksr:coldpath tracing only: reached when the coh category is armed
func (d *Directory) traceWriteFill(cell int, sp memory.SubPageID, start sim.Time) {
	d.Obs.CompleteAt(obs.CatCoh, cell, "fill.write", start, d.eng.Now(),
		obs.Arg{Key: "sp", Val: int64(sp)})
}

// GetSubPageThen attempts the get_sub_page instruction, inside p's Run
// step: acquire sp in atomic state. The request costs a ring transaction
// whether or not it succeeds (the packet must circulate to discover the
// atomic state). done (nil ends the chain) receives the outcome and
// latency once the request has circulated.
//
//ksr:hotpath
func (d *Directory) GetSubPageThen(p *sim.Process, cell int, sp memory.SubPageID, done func(ok bool, lat sim.Time)) {
	t := d.tx(p)
	en := d.get(sp)
	d.stats.GSPAttempts++
	dst := d.responder(en, cell)
	if x := d.crossDomainTarget(cell, en.holders); x >= 0 {
		dst = x
	}
	t.cell, t.sp, t.en, t.gspDone = cell, sp, en, done
	d.accessThen(t, cell, dst, sp.Base(), t.gspLandedFn)
}

// gspLanded settles a get_sub_page attempt once its request has
// circulated: it fails if another cell holds the sub-page atomically,
// otherwise it takes the sub-page in atomic state.
//
//ksr:hotpath
func (t *dirTx) gspLanded() {
	d, en, cell, sp := t.d, t.en, t.cell, t.sp
	ok := true // a re-acquire by the owner is a no-op
	switch {
	case en.atomic && en.owner == cell:
	case en.atomic:
		ok = false
		d.stats.GSPFailures++
		if d.Obs != nil {
			d.traceGSPFail(cell, sp, en.owner)
		}
	default:
		d.invalidateOthers(en, sp, cell)
		en.holders.set(cell)
		en.placeholders.clear(cell)
		en.owner = cell
		en.atomic = true
		if d.Obs != nil {
			d.traceGSPAcquire(cell, sp, t.lat)
		}
		d.checkpoint(sp, en)
	}
	done := t.gspDone
	t.gspDone = nil
	if done != nil {
		done(ok, t.lat)
	}
}

// traceGSPFail records a get_sub_page that found sp held by owner.
//
//ksr:coldpath tracing only: reached when the coh category is armed
func (d *Directory) traceGSPFail(cell int, sp memory.SubPageID, owner int) {
	d.Obs.Instant(obs.CatCoh, cell, "gsp.fail", obs.Arg{Key: "sp", Val: int64(sp)},
		obs.Arg{Key: "owner", Val: int64(owner)})
}

// traceGSPAcquire records a successful get_sub_page of latency lat.
//
//ksr:coldpath tracing only: reached when the coh category is armed
func (d *Directory) traceGSPAcquire(cell int, sp memory.SubPageID, lat sim.Time) {
	d.Obs.CompleteAt(obs.CatCoh, cell, "gsp.acquire", d.eng.Now()-lat, d.eng.Now(),
		obs.Arg{Key: "sp", Val: int64(sp)})
}

// ReleaseSubPage executes release_sub_page: drop the atomic state. The
// release circulates on the ring (one transaction) so that stalled
// requesters observe it. Watchers are woken.
func (d *Directory) ReleaseSubPage(p *sim.Process, cell int, sp memory.SubPageID) sim.Time {
	en := d.get(sp)
	if !en.atomic || en.owner != cell {
		panic(fmt.Sprintf("coherence: release_sub_page of sub-page %d not held atomically by cell %d",
			uint64(sp), cell))
	}
	d.stats.Releases++
	lat := d.access(p, cell, (cell+1)%d.cells, sp.Base())
	en.atomic = false
	en.version++
	if en.cond != nil {
		en.cond.Broadcast()
	}
	if d.Obs != nil {
		d.Obs.Instant(obs.CatCoh, cell, "gsp.release", obs.Arg{Key: "sp", Val: int64(sp)})
	}
	d.checkpoint(sp, en)
	return lat
}

// Poststore issues the poststore instruction from cell, which must hold sp
// writable. The updated sub-page circulates asynchronously: all
// place-holders receive the new value and the sub-page becomes shared, so
// the issuer pays an upgrade transaction on its next write — the
// interaction that slowed SP down in the paper. done, if non-nil, runs at
// completion.
func (d *Directory) Poststore(cell int, sp memory.SubPageID, done func()) {
	en := d.get(sp)
	d.stats.Poststores++
	dst := (cell + 1) % d.cells
	if x := d.crossDomainTarget(cell, en.placeholders); x >= 0 {
		dst = x
	}
	d.accessAsync(cell, dst, sp.Base(), func() {
		filled := 0
		for wi := range en.placeholders {
			w := en.placeholders[wi]
			if w == 0 {
				continue
			}
			en.placeholders[wi] = 0
			for ; w != 0; w &= w - 1 {
				en.holders.set(wi<<6 + bits.TrailingZeros64(w))
				d.stats.PoststoreFill++
				filled++
			}
		}
		if d.Obs != nil {
			d.Obs.Instant(obs.CatCoh, cell, "poststore.fill",
				obs.Arg{Key: "sp", Val: int64(sp)}, obs.Arg{Key: "filled", Val: int64(filled)})
		}
		if en.owner == cell && !en.atomic {
			en.owner = -1 // now shared
		}
		en.version++
		if en.cond != nil {
			en.cond.Broadcast()
		}
		d.checkpoint(sp, en)
		if done != nil {
			done()
		}
	})
}

// Prefetch issues a non-blocking fetch of sp into cell's local cache. The
// issuing processor continues immediately; a later access that arrives
// before completion joins the in-flight fetch instead of paying a second
// transaction. done, if non-nil, runs at completion (the machine layer
// uses it to fill the local cache).
func (d *Directory) Prefetch(cell int, sp memory.SubPageID, done func()) {
	en := d.get(sp)
	if en.holders.has(cell) || en.prefetching.has(cell) {
		if done != nil {
			done()
		}
		return
	}
	d.stats.Prefetches++
	en.prefetching.set(cell)
	dst := d.responder(en, cell)
	d.accessAsync(cell, dst, sp.Base(), func() {
		en.prefetching.clear(cell)
		if en.owner >= 0 && !en.atomic {
			en.owner = -1
		}
		en.holders.set(cell)
		en.placeholders.clear(cell)
		d.snarf(en)
		en.version++
		if en.cond != nil {
			en.cond.Broadcast()
		}
		d.checkpoint(sp, en)
		if done != nil {
			done()
		}
	})
}

// Drop records a capacity eviction of sp from cell (reported by the local
// cache). The atomic owner never drops its lock sub-page — the hardware
// pins it for the duration of the atomic hold.
func (d *Directory) Drop(cell int, sp memory.SubPageID) {
	en := d.entries[sp]
	if en == nil {
		return
	}
	if en.atomic && en.owner == cell {
		return
	}
	d.stats.Drops++
	en.holders.clear(cell)
	en.placeholders.clear(cell)
	if en.owner == cell {
		en.owner = -1
	}
	if d.Obs != nil {
		d.traceDrop(cell, sp)
	}
	d.checkpoint(sp, en)
}

// traceDrop records a capacity eviction.
//
//ksr:coldpath tracing only: reached when the coh category is armed
func (d *Directory) traceDrop(cell int, sp memory.SubPageID) {
	d.Obs.Instant(obs.CatCoh, cell, "drop", obs.Arg{Key: "sp", Val: int64(sp)})
}
