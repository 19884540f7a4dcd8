package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// hookLog records every engine hook call of a run as text, so two runs
// can be compared call for call.
func hookLog(e *Engine) *strings.Builder {
	var b strings.Builder
	e.SetHooks(&Hooks{
		EventFired:    func(at Time) { fmt.Fprintf(&b, "event %d\n", at) },
		ProcessResume: func(at Time, p *Process) { fmt.Fprintf(&b, "resume %d %s\n", at, p.Name()) },
		ProcessPark:   func(at Time, p *Process, why string) { fmt.Fprintf(&b, "park %d %s %s\n", at, p.Name(), why) },
		ProcessDone:   func(at Time, p *Process) { fmt.Fprintf(&b, "done %d %s\n", at, p.Name()) },
	})
	return &b
}

// contendedRun is the scenario both forms of the calls run: four
// processes take a one-unit resource, hold it, release it, and wait on a
// cond that a timer broadcasts, ten times each. chained runs each
// iteration as one chain; otherwise only the acquire is a chain and the
// hold and the wait block. It returns the hook log, the engine and the
// total time spent queued for the resource.
func contendedRun(t *testing.T, chained bool) (log string, e *Engine, queued Time) {
	t.Helper()
	e = NewEngine()
	b := hookLog(e)
	r := NewResource(e, "slot", 1)
	c := NewCond(e, "tick")
	var tick func()
	tick = func() {
		c.Broadcast()
		if e.Live() > 0 {
			e.Schedule(7, tick)
		}
	}
	e.Schedule(7, tick)
	for i := 0; i < 4; i++ {
		hold := Time(3 + i)
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
			var waits Time
			// One iteration as a chain: acquire, hold, release, wait for a tick.
			var granted func(Time)
			var held func()
			granted = func(w Time) {
				waits += w
				p.SleepThen(hold, held)
			}
			held = func() {
				r.Release()
				c.WaitThen(p, nil)
			}
			for k := 0; k < 10; k++ {
				if chained {
					p.Run(func() { r.AcquireThen(p, granted) })
					continue
				}
				waits += acquire(r, p)
				p.Sleep(hold)
				r.Release()
				c.Wait(p)
			}
			fmt.Fprintf(b, "%s waited %d\n", p.Name(), waits)
			queued += waits
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return b.String(), e, queued
}

// TestContinuationMatchesBlocking checks the byte-identity invariant at
// the engine level: the Then forms produce exactly the hook calls, event
// count, clock and queueing times of the blocking calls, in fewer
// goroutine handoffs.
func TestContinuationMatchesBlocking(t *testing.T) {
	blockLog, be, bq := contendedRun(t, false)
	chainLog, ce, cq := contendedRun(t, true)
	if blockLog != chainLog {
		t.Fatalf("hook calls differ:\nblocking:\n%s\nchained:\n%s", blockLog, chainLog)
	}
	if be.EventsExecuted() != ce.EventsExecuted() || be.Now() != ce.Now() {
		t.Errorf("chained run: %d events ending at %v, blocking %d at %v",
			ce.EventsExecuted(), ce.Now(), be.EventsExecuted(), be.Now())
	}
	if bq != cq {
		t.Errorf("time queued differs: blocking %v, chained %v", bq, cq)
	}
	if bq == 0 {
		t.Error("scenario never contended the resource")
	}
	if ce.Handoffs() >= be.Handoffs() {
		t.Errorf("chained run took %d handoffs, blocking %d", ce.Handoffs(), be.Handoffs())
	}
}

// TestSleepThenNilEndsChain: a nil step ends the chain at its wake.
func TestSleepThenNilEndsChain(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("p", func(p *Process) {
		p.Run(func() { p.SleepThen(5, func() { p.SleepThen(6, nil) }) })
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 11 {
		t.Errorf("chain ended at %v, want 11", woke)
	}
}

// recoverMessage runs f in a fresh one-process engine and returns what
// it panicked with. The panic leaves the engine mid-step, so the run is
// stopped rather than continued.
func recoverMessage(t *testing.T, f func(p *Process)) string {
	t.Helper()
	e := NewEngine()
	var msg string
	e.Spawn("p", func(p *Process) {
		defer func() {
			msg = fmt.Sprint(recover())
			e.stepping = nil
			e.stopped = true
		}()
		f(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return msg
}

// Steps are engine-only code: blocking inside one, starting a nested Run,
// or using a Then form outside a step is a bug and panics clearly.
func TestContinuationMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(p *Process)
		want string
	}{
		{"sleep in first step", func(p *Process) {
			p.Run(func() { p.Sleep(1) })
		}, "blocking call (sleep) inside a continuation step of process p"},
		{"sleep in dispatched step", func(p *Process) {
			p.Run(func() { p.SleepThen(1, func() { p.Sleep(1) }) })
		}, "blocking call (sleep) inside a continuation step of process p"},
		{"wait in step", func(p *Process) {
			c := NewCond(p.eng, "c")
			p.Run(func() { c.Wait(p) })
		}, "blocking call (cond c) inside a continuation step"},
		{"nested run", func(p *Process) {
			p.Run(func() { p.Run(func() {}) })
		}, "Run inside a continuation step of process p"},
		{"then outside step", func(p *Process) {
			p.SleepThen(1, nil)
		}, "outside its Run step"},
		{"two wakes", func(p *Process) {
			p.Run(func() { p.SleepThen(1, nil); p.SleepThen(2, nil) })
		}, "armed two wakes"},
	}
	for _, tc := range cases {
		if got := recoverMessage(t, tc.f); !strings.Contains(got, tc.want) {
			t.Errorf("%s: panicked with %q, want it to mention %q", tc.name, got, tc.want)
		}
	}
}

// Shutdown unwinds a process parked mid-chain without running its step.
func TestShutdownSkipsParkedStep(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.SetDeadline(100)
	ran, unwound := false, false
	e.Spawn("p", func(p *Process) {
		defer func() { unwound = true }()
		p.Run(func() { p.SleepThen(10, func() { p.SleepThen(1000, func() { ran = true }) }) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	waitGoroutines(t, base)
	if ran {
		t.Error("Shutdown ran the parked step")
	}
	if !unwound {
		t.Error("Shutdown did not unwind the process body")
	}
}

// One Cond wait/broadcast cycle allocates nothing: Broadcast reuses the
// waiter slice instead of dropping it for the next Wait to regrow.
func TestCondCycleAllocs(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "c")
	var allocs float64
	e.Spawn("waiter", func(p *Process) {
		allocs = testing.AllocsPerRun(100, func() { c.Wait(p) })
	})
	e.Spawn("broadcaster", func(p *Process) {
		for e.Live() > 1 {
			p.Sleep(1)
			c.Broadcast()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("wait/broadcast cycle: %v allocs, want 0", allocs)
	}
}
