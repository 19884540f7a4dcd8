package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing the test if it doesn't within a generous deadline.
// Goroutine exit is asynchronous with the channel operations that trigger
// it, so an immediate count would race.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines still alive, want <= %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShutdownReleasesDeadlineParkedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.SetDeadline(100)
	for i := 0; i < 8; i++ {
		e.Spawn("p", func(p *Process) {
			p.Sleep(1000) // parked far beyond the deadline
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := runtime.NumGoroutine(); got <= base {
		t.Fatalf("expected parked goroutines before Shutdown, have %d (baseline %d)", got, base)
	}
	e.Shutdown()
	waitGoroutines(t, base)
}

func TestShutdownReleasesDeadlockedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	r := NewResource(e, "r", 1)
	for i := 0; i < 4; i++ {
		e.Spawn("p", func(p *Process) {
			acquire(r, p)
			p.Sleep(10)
			// Never released: everyone after the first wedges.
		})
	}
	var derr *DeadlockError
	if err := e.Run(); !errors.As(err, &derr) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	e.Shutdown()
	waitGoroutines(t, base)
}

func TestShutdownReleasesStoppedEngine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.Spawn("p", func(p *Process) {
			for {
				p.Sleep(10)
			}
		})
	}
	e.Schedule(55, func() { e.stopped = true })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	waitGoroutines(t, base)
}

func TestShutdownBeforeRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	started := false
	e.Spawn("p", func(p *Process) { started = true })
	e.Shutdown()
	waitGoroutines(t, base)
	if started {
		t.Fatal("process body ran despite Shutdown before Run")
	}
}

func TestShutdownRunsDeferredCalls(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.SetDeadline(10)
	unwound := false
	e.Spawn("p", func(p *Process) {
		defer func() { unwound = true }()
		p.Sleep(1000)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	waitGoroutines(t, base)
	if !unwound {
		t.Fatal("deferred call in parked process body did not run on Shutdown")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) { p.Sleep(1000) })
	e.SetDeadline(10)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown()
	e.Shutdown() // must be a no-op, not a hang or panic
}

func TestShutdownOnFinishedEngine(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) { p.Sleep(10) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Shutdown() // nothing to release; must not hang
}

func TestSpawnAfterShutdownPanics(t *testing.T) {
	e := NewEngine()
	e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn on a shut-down engine did not panic")
		}
	}()
	e.Spawn("p", func(p *Process) {})
}

func TestRunAfterShutdownPanics(t *testing.T) {
	e := NewEngine()
	e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a shut-down engine did not panic")
		}
	}()
	_ = e.Run()
}

// TestManyEnginesNoLeak models a sweep: many engines run to a deadline and
// are shut down; the goroutine count must return to baseline.
func TestManyEnginesNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine()
		e.SetDeadline(1000)
		for j := 0; j < 4; j++ {
			e.Spawn("p", func(p *Process) {
				for {
					p.Sleep(Time(1 + j))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run #%d: %v", i, err)
		}
		e.Shutdown()
	}
	waitGoroutines(t, base)
}
