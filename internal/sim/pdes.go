package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Conservative parallel discrete-event simulation (PDES) over independent
// engines.
//
// A Partitioned groups several Engines — partitions — that interact only
// through explicitly-delayed messages whose delay is at least a fixed
// lookahead L (for the KSR-2 model: the minimum latency of an ARD
// crossing between ring:0s). That bound makes a barrier-window protocol
// safe: if T is the earliest pending event across all partitions, every
// event in [T, T+L) can execute without seeing a message that has not
// been sent yet, because any message sent from inside the window carries
// a timestamp >= T + L. The coordinator therefore alternates
//
//	deliver buffered messages -> T = min over partitions -> run every
//	partition's RunWindow(T+L) -> repeat
//
// until no events remain anywhere.
//
// Determinism does not depend on the worker count. Within a window each
// partition runs its own sequential engine; sends are buffered in
// per-sender outboxes (each touched only by the goroutine running that
// partition, so windows race on nothing); and between windows the
// coordinator merges all outboxes into one canonical order — by
// (timestamp, sender sequence number, sender partition) — before
// injecting them. Running with 1 worker or 16 produces byte-identical
// simulations; workers only change wall-clock time.
type Partitioned struct {
	parts     []*Engine
	lookahead Time
	workers   int

	// outbox[from] is appended to only by the goroutine currently running
	// partition from (inside its window), and drained only by the
	// coordinator between windows.
	outbox [][]xmsg
	seqs   []uint64 // per-sender send counters, for the canonical merge

	merged []xmsg  // merge scratch, reused across windows
	errs   []error // per-partition window results, reused across windows

	windows  uint64
	messages uint64

	// Per-partition accounting. pstats[i] follows the outbox discipline:
	// during a window only the goroutine running partition i touches its
	// Sent/LookaheadLimited fields (via Send), and the coordinator owns
	// everything between windows (account, deliver).
	pstats     []PartitionStats
	prevEvents []uint64 // engine event counts at the last window boundary
}

// PartitionStats is one partition's share of the run, answering "why
// does speedup saturate past N partitions" from a single run: a
// partition with few ActiveWindows or high IdleTime is along for the
// barrier ride; a partition that is often the straggler sets the
// window's critical path; LookaheadLimited counts sends whose delay sat
// exactly at the lookahead floor — the messages that would reject a
// larger (cheaper) window.
type PartitionStats struct {
	// Events is how many simulation events the partition's engine
	// dispatched.
	Events uint64
	// ActiveWindows counts barrier windows in which the partition
	// executed at least one event (window occupancy).
	ActiveWindows uint64
	// StragglerWindows counts windows in which this partition executed
	// the most events (ties go to the lowest index) — a proxy for "this
	// partition set the window's critical path".
	StragglerWindows uint64
	// IdleTime is simulated time spent parked at the window barrier:
	// the gap between the partition's clock when its window drained and
	// the window limit, summed over windows.
	IdleTime Time
	// Sent and Recv count cross-partition messages by origin and
	// destination.
	Sent uint64
	Recv uint64
	// LookaheadLimited counts sends whose delay equalled the lookahead
	// exactly — the binding constraint on window size.
	LookaheadLimited uint64
}

// PartitionedStats is the coordinator-level snapshot returned by Stats.
type PartitionedStats struct {
	Windows    uint64
	Messages   uint64
	Lookahead  Time
	Partitions []PartitionStats
}

// xmsg is one cross-partition message: run fn in partition to at absolute
// time at. from and seq only serve the canonical merge order.
type xmsg struct {
	at   Time
	seq  uint64
	from int
	to   int
	fn   func()
}

// NewPartitioned builds a coordinator over the given engines. lookahead
// is the minimum cross-partition delay every Send must respect; it must
// be positive, since a zero lookahead admits no parallel window at all.
func NewPartitioned(lookahead Time, parts ...*Engine) *Partitioned {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: Partitioned needs a positive lookahead, got %v", lookahead))
	}
	if len(parts) == 0 {
		panic("sim: Partitioned needs at least one engine")
	}
	return &Partitioned{
		parts:      parts,
		lookahead:  lookahead,
		workers:    1,
		outbox:     make([][]xmsg, len(parts)),
		seqs:       make([]uint64, len(parts)),
		errs:       make([]error, len(parts)),
		pstats:     make([]PartitionStats, len(parts)),
		prevEvents: make([]uint64, len(parts)),
	}
}

// SetWorkers sets how many OS-level goroutines run partition windows
// concurrently. 1 (the default) is fully sequential; values above the
// partition count are clamped. The setting never changes simulation
// results, only wall-clock time.
func (pd *Partitioned) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	pd.workers = n
}

// Lookahead returns the minimum cross-partition delay.
func (pd *Partitioned) Lookahead() Time { return pd.lookahead }

// Windows returns how many barrier windows Run has executed.
func (pd *Partitioned) Windows() uint64 { return pd.windows }

// Messages returns how many cross-partition messages have been delivered.
func (pd *Partitioned) Messages() uint64 { return pd.messages }

// Stats snapshots the coordinator's accounting. Deterministic: every
// field is computed by the coordinator between windows, so the snapshot
// is identical at any worker count.
func (pd *Partitioned) Stats() PartitionedStats {
	return PartitionedStats{
		Windows:    pd.windows,
		Messages:   pd.messages,
		Lookahead:  pd.lookahead,
		Partitions: append([]PartitionStats(nil), pd.pstats...),
	}
}

// Send queues fn to run in partition to at the sending partition's
// current time plus delay. It must be called from code executing inside
// partition from (an event or process holding that engine's control
// token). delay below the lookahead is a protocol violation — the target
// window may already have run past the message's timestamp — and panics.
//
//ksr:hotpath
func (pd *Partitioned) Send(from, to int, delay Time, fn func()) {
	if delay < pd.lookahead {
		panic(fmt.Sprintf("sim: cross-partition delay %v below the lookahead %v", delay, pd.lookahead))
	}
	pd.seqs[from]++
	pd.pstats[from].Sent++
	if delay == pd.lookahead {
		pd.pstats[from].LookaheadLimited++
	}
	pd.outbox[from] = append(pd.outbox[from], xmsg{
		at:   pd.parts[from].Now() + delay,
		seq:  pd.seqs[from],
		from: from,
		to:   to,
		fn:   fn,
	})
}

// Run drives all partitions to completion and returns the first error in
// partition order (deadline or livelock outcomes surface exactly
// as under Engine.Run). When every queue drains, processes still parked
// across the partitions mean a global deadlock; the report aggregates
// every partition's blocked processes.
func (pd *Partitioned) Run() error {
	for {
		pd.deliver()
		t, ok := pd.earliest()
		if !ok {
			break
		}
		limit := t + pd.lookahead
		err := pd.window(limit)
		pd.account(limit)
		if err != nil {
			return err
		}
		pd.windows++
	}
	live := 0
	var at Time
	var blocked []BlockedProc
	for _, e := range pd.parts {
		live += e.Live()
		if e.Now() > at {
			at = e.Now()
		}
		blocked = append(blocked, e.BlockedProcs()...)
	}
	if live == 0 {
		return nil
	}
	if len(blocked) == 0 {
		// Unreachable under the engine's invariants: a live process with
		// no pending events must be parked. Surface a broken invariant
		// loudly rather than reporting clean completion.
		panic(fmt.Sprintf("sim: %d live processes remain with empty queues but none blocked", live))
	}
	return &DeadlockError{At: at, Blocked: blocked}
}

// deliver merges every outbox into the canonical (at, seq, from) order
// and injects the messages into their target engines. Injection order
// matters: it fixes the engines' internal sequence numbers, hence the
// same-timestamp tie-break, hence byte-identity across worker counts.
//
//ksr:hotpath
func (pd *Partitioned) deliver() {
	pd.merged = pd.merged[:0]
	for from := range pd.outbox {
		pd.merged = append(pd.merged, pd.outbox[from]...)
		pd.outbox[from] = pd.outbox[from][:0]
	}
	if len(pd.merged) == 0 {
		return
	}
	sort.Sort((*xmsgSorter)(&pd.merged))
	for i := range pd.merged {
		m := &pd.merged[i]
		pd.pstats[m.to].Recv++
		pd.parts[m.to].ScheduleAt(m.at, m.fn)
		m.fn = nil // release the closure; merged is reused
	}
	pd.messages += uint64(len(pd.merged))
}

// xmsgSorter orders a merged outbox by (at, seq, from). A named type
// with a pointer receiver keeps deliver allocation-free: sort.Slice's
// closure would escape to the heap every window, while boxing *xmsgSorter
// into sort.Interface stores the pointer in the interface word directly.
type xmsgSorter []xmsg

func (s *xmsgSorter) Len() int      { return len(*s) }
func (s *xmsgSorter) Swap(i, j int) { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }
func (s *xmsgSorter) Less(i, j int) bool {
	a, b := &(*s)[i], &(*s)[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.from < b.from
}

// account folds one finished window into the per-partition stats. Runs
// on the coordinator goroutine after wg.Wait's happens-before edge, so
// reading the engines is race-free; the arithmetic depends only on
// simulation state, keeping the stats worker-count-independent.
func (pd *Partitioned) account(limit Time) {
	maxEv, straggler := uint64(0), -1
	for i, e := range pd.parts {
		st := &pd.pstats[i]
		ev := e.EventsExecuted()
		delta := ev - pd.prevEvents[i]
		pd.prevEvents[i] = ev
		st.Events = ev
		if delta > 0 {
			st.ActiveWindows++
			if delta > maxEv {
				maxEv, straggler = delta, i
			}
		}
		// A partition whose clock stops short of the window limit drained
		// early and idled at the barrier for the remainder.
		if idle := limit - e.Now(); idle > 0 {
			st.IdleTime += idle
		}
	}
	if straggler >= 0 {
		pd.pstats[straggler].StragglerWindows++
	}
}

// earliest returns the minimum pending event time across partitions.
//
//ksr:hotpath
func (pd *Partitioned) earliest() (Time, bool) {
	var min Time
	any := false
	for _, e := range pd.parts {
		if at, ok := e.NextEventAt(); ok && (!any || at < min) {
			min, any = at, true
		}
	}
	return min, any
}

// window runs every partition up to limit, fanning across workers. All
// partitions run even when one fails, so the engines are left in a
// consistent all-paused state; the error returned is the
// lowest-partition-index one, mirroring the sweep runner's
// lowest-index-error convention.
func (pd *Partitioned) window(limit Time) error {
	n := len(pd.parts)
	w := pd.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		var first error
		for _, e := range pd.parts {
			if err := e.RunWindow(limit); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		// Each worker drains partitions from a shared atomic counter; a
		// partition's whole window runs on one goroutine, and wg.Wait is
		// the happens-before edge back to the coordinator. This is the
		// one sanctioned goroutine site in the PDES layer — see the
		// Partitioned carve-out in ksrlint/simprocess.
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				pd.errs[i] = pd.parts[i].RunWindow(limit)
			}
		}()
	}
	wg.Wait()
	for _, err := range pd.errs {
		if err != nil {
			return err
		}
	}
	return nil
}
