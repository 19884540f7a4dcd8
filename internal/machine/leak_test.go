package machine

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

func waitBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d alive, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunErrorReleasesGoroutines checks that a Run ending in a
// DeadlockError (here: a fail-stopped cell wedging its peer on a spin)
// does not leak the parked cell goroutines, run after run.
func TestRunErrorReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		cfg := KSR1(2)
		cfg.Faults = faults.Config{
			FailStop: map[int]sim.Time{0: 10 * sim.Millisecond},
		}
		m := New(cfg)
		flag := m.AllocWords("flag", 1)
		_, err := m.Run(2, func(p *Proc) {
			if p.CellID() == 0 {
				p.Compute(1_000_000) // dies mid-compute
				p.WriteWord(flag.Word(0), 1)
				return
			}
			p.SpinUntilAtLeast(flag.Word(0), 1)
		})
		if err == nil {
			t.Fatal("expected an error from the wedged run")
		}
	}
	waitBaseline(t, base)
}

// TestCloseReleasesGoroutines checks that Close releases cells parked in
// a machine abandoned without an error (deadline-bounded run).
func TestCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := New(KSR1(4))
	m.Engine().SetDeadline(50 * sim.Microsecond)
	_, err := m.Run(4, func(p *Proc) {
		for {
			p.Process().Sleep(sim.Microsecond)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m.Close()
	waitBaseline(t, base)
}
