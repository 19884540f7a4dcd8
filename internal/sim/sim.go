// Package sim implements a deterministic process-oriented discrete-event
// simulation engine.
//
// Simulated processes run as goroutines, but exactly one goroutine executes
// at any instant: a single control token passes between the engine and the
// processes. A process that parks runs the event dispatch loop itself until
// an event resumes another process (or itself — in which case no goroutine
// switch happens at all), so a context switch costs one channel rendezvous
// rather than a round-trip through a scheduler goroutine. Events with equal
// timestamps fire in the order they were scheduled. All of this makes every
// simulation run bit-for-bit reproducible for a given program and seed.
//
// The event queue is a calendar queue (see queue.go) with pooled event
// records and one intrusive, reusable resume event per process, so the
// steady-state hot paths — Schedule of a plain callback, Sleep, resource
// handoff, cond broadcast — allocate nothing.
//
// Every blocking call also has a continuation form (SleepThen,
// Resource.AcquireThen, Cond.WaitThen) that arms the wake with a step:
// engine-only code that the dispatcher runs in whichever goroutine holds
// the token, so a chain of parks — a ring transaction, a get_sub_page
// retry loop, a coherence fill, a whole range sweep — costs one
// goroutine handoff instead of one per park (see Process.Run).
//
// The engine is the substrate for the KSR-1 machine model: each simulated
// processor (cell) is a Process, and the ring, caches, and coherence
// protocol express their latencies as Sleep calls, Resource acquisitions,
// and Cond waits.
package sim

import (
	"fmt"
	"runtime"
	"strings"
)

// Time is a point in simulated time, in nanoseconds.
type Time int64

const (
	// Microsecond is 1000 simulated nanoseconds.
	Microsecond Time = 1000
	// Millisecond is 1e6 simulated nanoseconds.
	Millisecond Time = 1000 * 1000
	// Second is 1e9 simulated nanoseconds.
	Second Time = 1000 * 1000 * 1000
)

// FromNs rehydrates a simulated time from a serialized nanosecond count
// (a journal record, a JSON report, an on-wire sample). It is the only
// sanctioned entry from raw int64 nanoseconds into the simulated time
// domain; ksrlint/timedomain flags direct conversions elsewhere.
//
//ksr:timebridge
func FromNs(ns int64) Time { return Time(ns) }

// Ns serializes a simulated time as a raw nanosecond count for storage
// in journals, JSON reports, and wire formats. The inverse of FromNs,
// and likewise the only sanctioned exit from the simulated time domain.
//
//ksr:timebridge
func (t Time) Ns() int64 { return int64(t) }

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a simulated duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is a scheduled callback or process resumption. proc != nil marks a
// resume event, which is the process's own intrusive timer record; plain
// callback events are pooled on the engine's free list.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	proc   *Process
	next   *event // bucket chain / free list
	queued bool
}

// Hooks is the engine's instrumentation surface: nil-checked function
// pointers invoked from the dispatch fast path. A nil *Hooks (the
// default) costs one predictable branch per event, so instrumentation
// stays off the steady-state paths unless explicitly armed; the obs
// package builds a Hooks that records trace events keyed by simulated
// time.
type Hooks struct {
	// EventFired runs after a plain callback event is dispatched.
	EventFired func(at Time)
	// ProcessResume runs when a process regains control (its resume
	// event fired), before its goroutine or its continuation step
	// continues.
	ProcessResume func(at Time, p *Process)
	// ProcessPark runs when a process parks, with the same reason
	// string that deadlock reports use — also when a continuation step
	// arms the next wake of its chain.
	ProcessPark func(at Time, p *Process, why string)
	// ProcessDone runs when a process body returns.
	ProcessDone func(at Time, p *Process)
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events uint64 // dispatched events (resumes + callbacks)
	q      eventQueue
	free   *event // pooled callback events

	mainWake chan struct{} // wakes the Run caller when the loop ends
	reaped   chan struct{} // Shutdown handshake: one unwound goroutine

	procs    []*Process
	running  *Process // process currently executing, nil if engine itself
	stepping *Process // process whose continuation step is executing, nil outside steps
	nlive    int      // spawned but not finished
	handoffs uint64   // control-token transfers between goroutines

	stopped  bool // ends Run after the current event; tests set it to abandon a run mid-step
	shutdown bool
	maxTime  Time // 0 = unlimited
	pauseAt  Time // window limit while inside RunWindow; 0 = no window
	runErr   error

	// Livelock watchdog: trip when more than watchdogLimit events fire
	// without simulated time advancing.
	watchdogLimit int
	watchAt       Time
	watchCount    int

	// hooks is stored by value so each hot-path check is one function
	// pointer load and test; a zero value (all nil) means disarmed.
	hooks Hooks
}

// SetHooks arms (or, with nil, disarms) the instrumentation hooks.
func (e *Engine) SetHooks(h *Hooks) {
	if h == nil {
		e.hooks = Hooks{}
		return
	}
	e.hooks = *h
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine {
	return &Engine{
		mainWake: make(chan struct{}, 1),
		reaped:   make(chan struct{}),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// EventsExecuted returns how many events (process resumptions and plain
// callbacks) the engine has dispatched. The PDES coordinator differences
// it across barrier windows for per-partition occupancy accounting.
func (e *Engine) EventsExecuted() uint64 { return e.events }

// Handoffs returns how many times the control token has passed from one
// goroutine to another: a park that resumes a different process (or ends
// the run), a finishing process handing on, and Run starting the first
// process. A park the parking process itself is resumed from costs none,
// and neither does a continuation step. Like EventsExecuted it is a pure
// function of the event order, so it measures context-switch work
// independently of the host.
//
//lint:ignore ksrlint/deadapi the host-independent context-switch count that the continuation tests and benchmarks gate on
func (e *Engine) Handoffs() uint64 { return e.handoffs }

// SetDeadline makes Run return once simulated time reaches t. A zero
// deadline (the default) means no limit. A Run abandoned at its deadline
// leaves parked process goroutines behind; call Shutdown to release them.
//
//lint:ignore ksrlint/deadapi the lifecycle and leak tests abandon runs at a deadline with it
func (e *Engine) SetDeadline(t Time) { e.maxTime = t }

// alloc takes a callback event from the pool.
//
//ksr:hotpath
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		//lint:ignore ksrlint/hotalloc pool miss: each record is allocated once and recycled forever after, so steady state never reaches this line
		return &event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// release returns a popped event to the pool. Resume events are owned by
// their process and only have their queued flag cleared.
//
//ksr:hotpath
func (e *Engine) release(ev *event) {
	ev.queued = false
	if ev.proc != nil {
		return
	}
	ev.fn = nil
	ev.next = e.free
	e.free = ev
}

// Schedule runs fn at time Now()+d. fn executes in engine context: it must
// not park, but it may schedule further events, release resources, and
// broadcast conds. d must be non-negative.
//
//ksr:hotpath
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %d", d))
	}
	ev := e.alloc()
	ev.at = e.now + d
	e.seq++
	ev.seq = e.seq
	ev.fn = fn
	e.q.push(ev)
}

// ScheduleAt runs fn at the absolute simulated time at, which must not be
// in the engine's past. It exists for the PDES coordinator, which injects
// cross-partition messages stamped with the sender's clock into a target
// engine whose clock lags behind; the conservative window protocol
// guarantees at is beyond the target's current window, so the absolute
// form never violates the no-scheduling-into-the-past invariant.
//
//ksr:hotpath
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) into the past (now %v)", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	e.seq++
	ev.seq = e.seq
	ev.fn = fn
	e.q.push(ev)
}

// NextEventAt reports the timestamp of the earliest pending event, or
// false when the queue is empty. The PDES coordinator uses it between
// windows to pick the next global barrier time.
func (e *Engine) NextEventAt() (Time, bool) { return e.q.peek() }

// scheduleResume queues p's intrusive resume event at Now()+d. A process
// has at most one pending resumption (it is either sleeping on its timer
// or parked waiting for exactly one grant/broadcast), so the single
// per-process record suffices and no allocation happens.
//
//ksr:hotpath
func (e *Engine) scheduleResume(d Time, p *Process) {
	t := &p.timer
	if t.queued {
		panic("sim: process " + p.name + " resumed while a resume is already pending")
	}
	t.at = e.now + d
	e.seq++
	t.seq = e.seq
	e.q.push(t)
}

// Process is a simulated thread of control.
type Process struct {
	eng   *Engine
	wake  chan struct{} // control-token handoff, capacity 1
	name  string
	id    int
	timer event // intrusive resume event; timer.proc == the process itself

	done       bool
	reap       bool   // set (by the goroutine itself) when unwinding for Shutdown
	blocked    bool   // parked with no pending resume event
	blockWhy   string // human-readable reason, for deadlock reports
	blockSince Time   // when the process last parked without a resume event

	// Continuation state (see Run). armed marks a wake armed by a Then
	// form: when it fires, the dispatcher runs step (nil: none) instead
	// of resuming the goroutine, and parks again with stepWhy if the
	// step armed another wake.
	armed   bool
	step    func()
	stepWhy string

	// A contended AcquireThen's bookkeeping, kept here rather than in a
	// closure so the grant allocates nothing; grantStep is p.finishGrant,
	// bound once at Spawn.
	grantStart Time
	granted    func(wait Time)
	grantStep  func()
}

// Name returns the name given at Spawn.
func (p *Process) Name() string { return p.name }

// ID returns the spawn-ordered process id (0, 1, ...).
func (p *Process) ID() int { return p.id }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// Spawn creates a process that starts running body at the current simulated
// time. It may be called before Run or from inside a running process or
// event.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	if e.shutdown {
		panic("sim: Spawn on a shut-down engine")
	}
	p := &Process{
		eng:  e,
		wake: make(chan struct{}, 1),
		name: name,
		id:   len(e.procs),
	}
	p.timer.proc = p
	p.grantStep = p.finishGrant
	e.procs = append(e.procs, p)
	e.nlive++
	//lint:ignore ksrlint/simprocess Spawn is the engine-mediated path itself: the control token guarantees exactly one of these goroutines is ever runnable
	go func() {
		// p.reap is only ever touched by this goroutine, at points where it
		// holds the control token — reading e.shutdown here after the final
		// handoff would race with a later Shutdown.
		defer func() {
			if p.reap {
				e.reaped <- struct{}{}
			}
		}()
		<-p.wake
		if e.shutdown {
			p.reap = true
			return
		}
		body(p)
		if fn := e.hooks.ProcessDone; fn != nil {
			fn(e.now, p)
		}
		p.done = true
		e.nlive--
		// The finishing goroutine keeps dispatching until control moves on.
		next := e.dispatch(nil)
		e.handoffs++
		if next != nil {
			next.wake <- struct{}{}
		} else {
			e.mainWake <- struct{}{}
		}
	}()
	e.scheduleResume(0, p)
	return p
}

// dispatch runs the event loop in the calling goroutine, which must hold
// the engine's control token. self is the parking process whose goroutine
// is executing the loop (nil when called from Run or a finishing process).
// It returns the process control should transfer to, or nil when the run
// is over (with the outcome recorded in e.runErr); when it returns self,
// control has come straight back and no goroutine switch is needed.
//
//ksr:hotpath
func (e *Engine) dispatch(self *Process) *Process {
	e.running = nil
	for {
		if e.stopped {
			e.runErr = nil
			return nil
		}
		if e.pauseAt > 0 {
			// Inside RunWindow: an empty queue or an event at/after the
			// window limit ends the window, not the run — blocked
			// processes may be waiting on another partition's messages,
			// so the deadlock check is deferred to the coordinator.
			if at, ok := e.q.peek(); !ok || at >= e.pauseAt {
				e.runErr = nil
				return nil
			}
		}
		if e.maxTime > 0 {
			// Stop before popping past the deadline: the queue's window
			// follows its last pop, which must never run ahead of e.now.
			if at, ok := e.q.peek(); ok && at > e.maxTime {
				e.now = e.maxTime
				e.runErr = nil
				return nil
			}
		}
		ev := e.q.pop()
		if ev == nil {
			e.runErr = e.deadlockErr()
			return nil
		}
		if e.watchdogLimit > 0 {
			if ev.at != e.watchAt {
				e.watchAt, e.watchCount = ev.at, 0
			}
			e.watchCount++
			if e.watchCount > e.watchdogLimit {
				e.now = ev.at
				e.release(ev)
				e.runErr = livelockErr(ev.at, e.watchCount, e.watchdogLimit)
				return nil
			}
		}
		e.now = ev.at
		e.events++
		if p := ev.proc; p != nil {
			if p.done {
				panic("sim: resuming finished process " + p.name)
			}
			p.blocked = false
			if fn := e.hooks.ProcessResume; fn != nil {
				fn(ev.at, p)
			}
			if p.armed && e.runStep(p) {
				// The step armed the next wake: p parks again right here,
				// exactly as its goroutine would have, and dispatch goes on.
				p.blockWhy = p.stepWhy
				if fn := e.hooks.ProcessPark; fn != nil {
					fn(e.now, p, p.stepWhy)
				}
				continue
			}
			e.running = p
			return p
		}
		fn := ev.fn
		e.release(ev)
		if hook := e.hooks.EventFired; hook != nil {
			hook(e.now)
		}
		fn()
	}
}

// runStep runs p's armed continuation step (its wake just fired) and
// reports whether the step armed another wake; false means the chain has
// ended and p's goroutine resumes.
//
//ksr:hotpath
func (e *Engine) runStep(p *Process) bool {
	p.armed = false
	if step := p.step; step != nil {
		p.step = nil
		e.stepping = p
		step()
		e.stepping = nil
	}
	return p.armed
}

// park suspends the calling process until the engine resumes it. The
// parking goroutine dispatches further events itself; control returns
// either directly (the next event resumed this same process) or through
// the wake channel.
//
//ksr:hotpath
func (p *Process) park(why string) {
	e := p.eng
	if e.stepping != nil {
		panic("sim: blocking call (" + why + ") inside a continuation step of process " +
			e.stepping.name + "; steps must use the Then forms")
	}
	if e.shutdown {
		// A deferred call parked again while unwinding for Shutdown.
		p.reap = true
		runtime.Goexit()
	}
	p.blockWhy = why
	if fn := e.hooks.ProcessPark; fn != nil {
		fn(e.now, p, why)
	}
	next := e.dispatch(p)
	if next != p {
		e.handoffs++
		if next != nil {
			next.wake <- struct{}{}
		} else {
			e.mainWake <- struct{}{}
		}
		<-p.wake
		if e.shutdown {
			p.reap = true
			runtime.Goexit()
		}
	}
	p.blockWhy = ""
}

// Sleep advances the process's local view of time by d. Other events with
// earlier timestamps run in between.
//
//ksr:hotpath
func (p *Process) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Sleep with negative duration %d", d))
	}
	p.eng.scheduleResume(d, p)
	p.park("sleep")
}

// block parks p with no pending event; something else must wake it via a
// Resource grant or Cond broadcast, otherwise the simulation deadlocks.
//
//ksr:hotpath
func (p *Process) block(why string) {
	p.blocked = true
	p.blockSince = p.eng.now
	p.park(why)
}

// Run executes step on behalf of p, in p's own goroutine, and returns
// once the chain of continuations it starts has ended. A step is
// engine-only code between two parks: it may do what engine callbacks do
// (schedule events, release resources, broadcast conds, draw from RNGs,
// call hooks) and ends by arming at most one wake through a Then form —
// SleepThen, Resource.AcquireThen, Cond.WaitThen — which names the next
// step. When that wake fires, the dispatcher runs the next step in
// whichever goroutine holds the control token instead of handing the
// token back to p; only when a step arms nothing does p's goroutine
// resume and Run return. Every event, hook call and park reason is
// exactly what the blocking calls would produce, so a chain changes host
// time only: one goroutine handoff per chain instead of one per park.
//
// Steps run in other processes' goroutines, so they must never run
// simulated-program code, block (Sleep, Wait, Run all panic
// inside a step), or panic to unwind p. Run must be called by p itself.
func (p *Process) Run(step func()) {
	e := p.eng
	if e.stepping != nil {
		panic("sim: Run inside a continuation step of process " + e.stepping.name)
	}
	e.stepping = p
	step()
	e.stepping = nil
	if p.armed {
		p.park(p.stepWhy)
	}
}

// arm records next as the step to run when p's wake fires. Only p's own
// running step may arm a wake, and only one.
//
//ksr:hotpath
func (p *Process) arm(why string, next func()) {
	p.mustStep()
	if p.armed {
		panic("sim: process " + p.name + " armed two wakes in one continuation step")
	}
	p.armed, p.step, p.stepWhy = true, next, why
}

// mustStep panics unless p's continuation step is the code running now.
//
//ksr:hotpath
func (p *Process) mustStep() {
	if p.eng.stepping != p {
		panic("sim: continuation call for process " + p.name + " outside its Run step")
	}
}

// SleepThen is the continuation form of Sleep: it arms p's wake at
// Now()+d with next as the step to run then (nil ends the chain there).
// It must be the last thing the calling step does.
//
//ksr:hotpath
func (p *Process) SleepThen(d Time, next func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: SleepThen with negative duration %d", d))
	}
	p.arm("sleep", next)
	p.eng.scheduleResume(d, p)
}

// armBlocked arms a wake with no pending event, as block does for the
// blocking forms: a Resource grant or Cond broadcast must fire it.
//
//ksr:hotpath
func (p *Process) armBlocked(why string, next func()) {
	p.arm(why, next)
	p.blocked = true
	p.blockSince = p.eng.now
}

// finishGrant is the step of a contended AcquireThen: it hands the time
// spent queued to the caller's continuation.
//
//ksr:hotpath
func (p *Process) finishGrant() {
	next := p.granted
	p.granted = nil
	if next != nil {
		next(p.eng.now - p.grantStart)
	}
}

// BlockedProc describes one wedged process in a DeadlockError: which
// process, what it was waiting for, and since when.
type BlockedProc struct {
	Name   string // process name given at Spawn
	ID     int    // spawn-ordered process id
	Reason string // park reason ("resource ring0.0.sub0", "cond subpage 42")
	Since  Time   // simulated time at which it parked
}

func (b BlockedProc) String() string {
	return fmt.Sprintf("%s: %s (parked since t=%v)", b.Name, b.Reason, b.Since)
}

// DeadlockError reports that no events remain while processes are still
// blocked: the simulation has wedged. At is the simulated time of the
// wedge; Blocked lists every parked process with its park reason and the
// time it stopped making progress, in process-id order.
type DeadlockError struct {
	At      Time
	Blocked []BlockedProc
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%v: %d processes blocked with no pending events",
		e.At, len(e.Blocked))
	for _, p := range e.Blocked {
		fmt.Fprintf(&b, "\n  %s", p)
	}
	return b.String()
}

// deadlockErr builds the end-of-run error for an empty event queue: nil
// when every process finished, a *DeadlockError naming the wedged
// processes otherwise.
//
//ksr:coldpath
func (e *Engine) deadlockErr() error {
	if e.nlive == 0 {
		return nil
	}
	blocked := e.BlockedProcs()
	if len(blocked) == 0 {
		return nil
	}
	return &DeadlockError{At: e.now, Blocked: blocked}
}

// BlockedProcs lists the processes currently parked with no pending
// resume event, in process-id order. A within-engine deadlock report is
// built from this; the PDES coordinator aggregates it across partitions,
// where a locally-wedged process may legitimately be waiting on another
// partition's message.
func (e *Engine) BlockedProcs() []BlockedProc {
	var blocked []BlockedProc
	for _, p := range e.procs { // spawn order == id order
		if !p.done && p.blocked {
			blocked = append(blocked, BlockedProc{
				Name:   p.name,
				ID:     p.id,
				Reason: p.blockWhy,
				Since:  p.blockSince,
			})
		}
	}
	return blocked
}

// LivelockError reports that the progress watchdog tripped: more than
// Limit events executed back-to-back without simulated time advancing,
// which means some set of processes is re-waking itself in a zero-delay
// cycle instead of progressing.
type LivelockError struct {
	At     Time // the instant time stopped advancing at
	Events int  // events executed at that instant before tripping
	Limit  int  // the armed threshold
}

// livelockErr builds the watchdog's error off the dispatch fast path.
//
//ksr:coldpath
func livelockErr(at Time, events, limit int) error {
	return &LivelockError{At: at, Events: events, Limit: limit}
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("sim: livelock watchdog tripped at t=%v: %d events executed without time advancing (limit %d)",
		e.At, e.Events, e.Limit)
}

// SetWatchdog arms the livelock watchdog: Run aborts with a
// *LivelockError once more than limit events execute at a single instant
// of simulated time. A genuine workload executes a bounded burst of
// zero-delay events per instant (wakeups, resource handoffs); an
// unbounded burst means processes are re-waking each other without time
// advancing. 0 (the default) disarms the watchdog.
func (e *Engine) SetWatchdog(limit int) { e.watchdogLimit = limit }

// Run executes events until none remain or the deadline passes. It returns a *DeadlockError if processes remain blocked with an
// empty event queue, a *LivelockError if the armed watchdog trips, and
// nil otherwise.
//
// A Run that ends with processes still parked (deadline, deadlock,
// livelock) leaves their goroutines alive; call Shutdown to release
// them once the engine is abandoned.
func (e *Engine) Run() error {
	if e.shutdown {
		panic("sim: Run on a shut-down engine")
	}
	e.runErr = nil
	if next := e.dispatch(nil); next != nil {
		e.handoffs++
		next.wake <- struct{}{}
		<-e.mainWake
	}
	err := e.runErr
	e.runErr = nil
	return err
}

// RunWindow executes events strictly before limit, then returns with the
// engine paused: parked processes stay parked, pending events at or after
// limit stay queued, and a later RunWindow (or Run) picks up where this
// one stopped. An exhausted queue ends the window without a deadlock
// check — under the PDES window protocol, locally-blocked processes may
// be waiting on messages another partition will deliver at the next
// barrier. Deadline and watchdog behave as in Run.
func (e *Engine) RunWindow(limit Time) error {
	if e.shutdown {
		panic("sim: RunWindow on a shut-down engine")
	}
	if limit <= 0 {
		panic(fmt.Sprintf("sim: RunWindow with non-positive limit %v", limit))
	}
	e.pauseAt = limit
	e.runErr = nil
	if next := e.dispatch(nil); next != nil {
		e.handoffs++
		next.wake <- struct{}{}
		<-e.mainWake
	}
	e.pauseAt = 0
	err := e.runErr
	e.runErr = nil
	return err
}

// Shutdown releases every parked process goroutine and marks the engine
// dead. It must be called only when the engine is not running (before Run,
// or after Run has returned): engines abandoned after a deadline or a
// deadlock or livelock error would otherwise leak one goroutine
// per unfinished process for the life of the program. Unfinished process
// bodies are unwound via runtime.Goexit (their deferred calls run; bodies
// that have not started yet never do). Shutdown is idempotent, and the
// engine must not be used afterwards.
func (e *Engine) Shutdown() {
	if e.shutdown {
		return
	}
	e.shutdown = true
	for _, p := range e.procs {
		if p.done {
			continue
		}
		// Wake the goroutine (parked in park or waiting to start in the
		// Spawn wrapper); it observes e.shutdown, unwinds, and its deferred
		// handshake confirms the exit before the next one is woken, so
		// user-level deferred calls never run concurrently.
		p.wake <- struct{}{}
		<-e.reaped
		p.done = true
		e.nlive--
	}
}

// Live returns the number of spawned processes that have not finished —
// recurring instrumentation events use it to retire themselves once the
// simulated program is done.
func (e *Engine) Live() int { return e.nlive }
