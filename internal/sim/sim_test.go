package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// acquire claims a unit of r for p in FIFO order and returns the time p
// spent queued: AcquireThen run to completion.
func acquire(r *Resource, p *Process) (wait Time) {
	p.Run(func() { r.AcquireThen(p, func(w Time) { wait = w }) })
	return wait
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{4 * Second, "4s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("events fired in order %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Errorf("final time = %v, want 30", e.Now())
	}
}

func TestScheduleTieBreaksFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule(-1) did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var wakeups []Time
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Sleep(100)
			wakeups = append(wakeups, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 200, 300}
	for i, w := range want {
		if wakeups[i] != w {
			t.Errorf("wakeup %d at %v, want %v", i, wakeups[i], w)
		}
	}
}

func TestSleepZero(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("z", func(p *Process) {
		p.Sleep(0)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("process with Sleep(0) did not complete")
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			trace = append(trace, fmt.Sprintf("a@%d", p.Now()))
		}
	})
	e.Spawn("b", func(p *Process) {
		for i := 0; i < 2; i++ {
			p.Sleep(15)
			trace = append(trace, fmt.Sprintf("b@%d", p.Now()))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At t=30 both wake; b's event was scheduled earlier (at t=15) so it
	// fires first — same-time events are FIFO by schedule order.
	want := "[a@10 b@15 a@20 b@30 a@30]"
	if fmt.Sprint(trace) != want {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childDone Time = -1
	e.Spawn("parent", func(p *Process) {
		p.Sleep(50)
		e.Spawn("child", func(c *Process) {
			c.Sleep(25)
			childDone = c.Now()
		})
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childDone != 75 {
		t.Errorf("child finished at %v, want 75", childDone)
	}
}

func TestDeadline(t *testing.T) {
	e := NewEngine()
	e.SetDeadline(100)
	count := 0
	e.Spawn("loop", func(p *Process) {
		for i := 0; i < 1000; i++ {
			p.Sleep(10)
			count++
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("loop body ran %d times before deadline, want 10", count)
	}
	if e.Now() != 100 {
		t.Errorf("time at deadline = %v, want 100", e.Now())
	}
}

// TestDeadlineLeavesLaterEventsQueued checks that a run stopped at its
// deadline takes nothing past it off the queue: the first later event
// stays pending, and an event scheduled after the stop, between the
// deadline and that event, runs before it when the run resumes.
func TestDeadlineLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine()
	e.SetDeadline(100)
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	e.Schedule(5000, record)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at, ok := e.NextEventAt(); e.Now() != 100 || !ok || at != 5000 {
		t.Fatalf("after the deadline: now %v, next event (%v, %v), want 100 and (5us, true)", e.Now(), at, ok)
	}
	e.Schedule(10, record)
	e.SetDeadline(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 110 || fired[1] != 5000 {
		t.Fatalf("events fired at %v, want [110ns 5us]", fired)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "never")
	e.Spawn("waiter", func(p *Process) {
		c.Wait(p)
	})
	err := e.Run()
	derr, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(derr.Blocked) != 1 {
		t.Fatalf("blocked list = %v", derr.Blocked)
	}
	b := derr.Blocked[0]
	if b.Name != "waiter" || b.ID != 0 || b.Reason != "cond never" {
		t.Errorf("blocked proc = %+v", b)
	}
}

func TestDeadlockErrorDetail(t *testing.T) {
	// The report must carry per-process park reasons, park times, and the
	// wedge time, ordered by process id.
	e := NewEngine()
	c := NewCond(e, "flag")
	r := NewResource(e, "slot", 1)
	e.Spawn("spinner", func(p *Process) {
		p.Sleep(30)
		c.Wait(p)
	})
	e.Spawn("holder", func(p *Process) {
		acquire(r, p)
		p.Sleep(100) // sim advances to 100, then holder blocks too
		c.Wait(p)
	})
	e.Spawn("queued", func(p *Process) {
		p.Sleep(10)
		acquire(r, p) // waits forever behind holder
	})
	err := e.Run()
	derr, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if derr.At != 100 {
		t.Errorf("wedge time = %v, want 100", derr.At)
	}
	if len(derr.Blocked) != 3 {
		t.Fatalf("blocked = %v", derr.Blocked)
	}
	want := []BlockedProc{
		{Name: "spinner", ID: 0, Reason: "cond flag", Since: 30},
		{Name: "holder", ID: 1, Reason: "cond flag", Since: 100},
		{Name: "queued", ID: 2, Reason: "resource slot", Since: 10},
	}
	for i, w := range want {
		if derr.Blocked[i] != w {
			t.Errorf("Blocked[%d] = %+v, want %+v", i, derr.Blocked[i], w)
		}
	}
	msg := derr.Error()
	for _, frag := range []string{"deadlock at t=100ns", "spinner: cond flag (parked since t=30ns)",
		"queued: resource slot (parked since t=10ns)"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("Error() = %q missing %q", msg, frag)
		}
	}
}

func TestWatchdogTripsOnZeroDelayLoop(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(1000)
	var loop func()
	loop = func() { e.Schedule(0, loop) }
	e.Schedule(5, loop)
	err := e.Run()
	lerr, ok := err.(*LivelockError)
	if !ok {
		t.Fatalf("Run() = %v, want *LivelockError", err)
	}
	if lerr.At != 5 || lerr.Events != 1001 || lerr.Limit != 1000 {
		t.Errorf("livelock = %+v", lerr)
	}
	if !strings.Contains(lerr.Error(), "without time advancing") {
		t.Errorf("Error() = %q", lerr.Error())
	}
}

func TestWatchdogQuietOnProgress(t *testing.T) {
	// Many events per instant are fine as long as each instant's burst
	// stays under the limit.
	e := NewEngine()
	e.SetWatchdog(50)
	fired := 0
	for tick := Time(0); tick < 100; tick++ {
		tick := tick
		for k := 0; k < 40; k++ {
			e.Schedule(tick, func() { fired++ })
		}
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	if fired != 4000 {
		t.Errorf("fired = %d", fired)
	}
}

// TestStop: a set stopped flag ends Run after the current event.
func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10, func() { fired++; e.stopped = true })
	e.Schedule(20, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("%d events fired after the stop, want 1", fired)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "slot", 1)
	var order []string
	hold := func(name string, arrive Time) {
		e.Spawn(name, func(p *Process) {
			p.Sleep(arrive)
			acquire(r, p)
			order = append(order, name)
			p.Sleep(100)
			r.Release()
		})
	}
	hold("first", 0)
	hold("second", 10)
	hold("third", 20)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[first second third]" {
		t.Errorf("grant order %v, want FIFO", order)
	}
	if e.Now() != 300 {
		t.Errorf("serialized holds finished at %v, want 300", e.Now())
	}
	if r.InUse() != 0 {
		t.Errorf("resource still in use: %d", r.InUse())
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	// With capacity 2, three 100ns holds finish at 200, not 300.
	e := NewEngine()
	r := NewResource(e, "slots", 2)
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprint("p", i), func(p *Process) {
			acquire(r, p)
			p.Sleep(100)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 200 {
		t.Errorf("finished at %v, want 200", e.Now())
	}
}

func TestResourceWaitAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "s", 1)
	e.Spawn("a", func(p *Process) {
		acquire(r, p)
		p.Sleep(100)
		r.Release()
	})
	var waited Time
	e.Spawn("b", func(p *Process) {
		waited = acquire(r, p)
		r.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 100 {
		t.Errorf("b waited %v, want 100", waited)
	}
}

func TestResourceAcquireAsync(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "s", 1)
	var order []string
	e.Spawn("holder", func(p *Process) {
		acquire(r, p)
		p.Sleep(50)
		order = append(order, "holder-release")
		r.Release()
	})
	e.Schedule(10, func() {
		r.AcquireAsync(func() {
			order = append(order, "async-granted")
			r.Release()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[holder-release async-granted]"
	if fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release on idle resource did not panic")
		}
	}()
	NewResource(NewEngine(), "s", 1).Release()
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "flag")
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprint("w", i), func(p *Process) {
			c.Wait(p)
			woken++
		})
	}
	e.Schedule(100, func() { c.Broadcast() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Errorf("woken = %d, want 5", woken)
	}
}

func TestCondLateWaiterNeedsNextBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "flag")
	var times []Time
	e.Spawn("early", func(p *Process) {
		c.Wait(p)
		times = append(times, p.Now())
	})
	e.Spawn("late", func(p *Process) {
		p.Sleep(150)
		c.Wait(p)
		times = append(times, p.Now())
	})
	e.Schedule(100, func() { c.Broadcast() })
	e.Schedule(200, func() { c.Broadcast() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(times) != "[100ns 200ns]" {
		t.Errorf("wake times = %v, want [100 200]", times)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		r := NewResource(e, "ring", 3)
		c := NewCond(e, "barrier")
		var trace []string
		arrived := 0
		for i := 0; i < 8; i++ {
			name := fmt.Sprint("p", i)
			e.Spawn(name, func(p *Process) {
				rng := NewRNG(uint64(p.ID()) + 7)
				for j := 0; j < 5; j++ {
					p.Sleep(Time(rng.Intn(40) + 1))
					acquire(r, p)
					p.Sleep(20)
					r.Release()
				}
				arrived++
				if arrived == 8 {
					c.Broadcast()
				} else {
					c.Wait(p)
				}
				trace = append(trace, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("two identical runs diverged:\n%v\n%v", a, b)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGProperties(t *testing.T) {
	// Intn stays in range for arbitrary seeds and bounds.
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Float64 stays in [0, 1).
	g := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	s := r.Split()
	// Drawing from the parent must not change the child's stream.
	want := make([]uint64, 10)
	s2 := NewRNG(1)
	s2 = s2.Split()
	for i := range want {
		want[i] = s2.Uint64()
	}
	r.Uint64()
	for i := range want {
		if got := s.Uint64(); got != want[i] {
			t.Fatalf("split stream perturbed by parent at %d", i)
		}
	}
}

func TestRNGUniformityRough(t *testing.T) {
	r := NewRNG(123)
	const buckets, draws = 16, 16000
	var hist [buckets]int
	for i := 0; i < draws; i++ {
		hist[r.Intn(buckets)]++
	}
	for i, h := range hist {
		if h < draws/buckets/2 || h > draws/buckets*2 {
			t.Errorf("bucket %d count %d is wildly non-uniform", i, h)
		}
	}
}
