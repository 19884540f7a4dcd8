package machine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// A stalling cell loses exactly StallTime per injected stall, on top of
// its normal cycle charges, and the monitor counts each stall.
func TestCellStallsSlowCompute(t *testing.T) {
	const ops = 2_000_000 // 100 ms of compute at 50 ns/cycle

	clean := New(KSR1(2))
	cleanT, err := clean.Run(1, func(p *Proc) { p.Compute(ops) })
	if err != nil {
		t.Fatal(err)
	}

	cfg := KSR1(2)
	cfg.Faults = faults.Config{
		CellStallMean: 5 * sim.Millisecond,
		CellStallTime: 50 * sim.Microsecond,
	}
	m := New(cfg)
	faultyT, err := m.Run(1, func(p *Proc) { p.Compute(ops) })
	if err != nil {
		t.Fatal(err)
	}

	stalls := m.CellAt(0).Monitor().Stalls
	if stalls == 0 {
		t.Fatal("100 ms of compute with a 5 ms mean stall interval injected no stalls")
	}
	want := cleanT + sim.Time(stalls)*50*sim.Microsecond
	if faultyT != want {
		t.Errorf("faulty run took %v, want clean %v + %d stalls x 50us = %v",
			faultyT, cleanT, stalls, want)
	}
	if got := m.FaultStats().CellStalls; got != stalls {
		t.Errorf("injector counted %d stalls, monitor %d", got, stalls)
	}
	if m.TotalMonitor().Stalls != stalls {
		t.Error("TotalMonitor does not aggregate Stalls")
	}
}

// A fail-stopped cell halts at its configured time; a peer waiting on it
// wedges, and the deadlock report names the waiting cell, its park
// reason, and the fail-stopped cell shows up in FailedCells.
func TestFailStopWedgesPeer(t *testing.T) {
	cfg := KSR1(2)
	cfg.Faults = faults.Config{
		FailStop: map[int]sim.Time{0: 10 * sim.Millisecond},
	}
	m := New(cfg)
	flag := m.AllocWords("flag", 1)

	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 0 {
			p.Compute(1_000_000) // 50 ms: dies at 10 ms, mid-compute
			p.WriteWord(flag.Word(0), 1)
			return
		}
		p.SpinUntilAtLeast(flag.Word(0), 1)
	})

	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError from wedged peer, got %v", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0].Name != "cell1" {
		t.Fatalf("deadlock should name cell1 as the lone blocked process: %v", err)
	}
	if !strings.Contains(err.Error(), "cell1") {
		t.Errorf("error text should name the wedged cell: %q", err)
	}

	if got := m.FailedCells(); len(got) != 1 || got[0] != 0 {
		t.Errorf("FailedCells = %v, want [0]", got)
	}
	if m.CellAt(0).Failed() != true || m.CellAt(1).Failed() != false {
		t.Error("Failed() flags wrong")
	}
	if m.FaultStats().FailStops != 1 {
		t.Errorf("FailStops = %d, want 1", m.FaultStats().FailStops)
	}
}

// A cell whose fail-stop time arrives only after its program finishes
// never halts.
func TestFailStopAfterCompletionIsHarmless(t *testing.T) {
	cfg := KSR1(1)
	cfg.Faults = faults.Config{
		FailStop: map[int]sim.Time{0: sim.Second},
	}
	m := New(cfg)
	if _, err := m.Run(1, func(p *Proc) { p.Compute(100) }); err != nil {
		t.Fatal(err)
	}
	if len(m.FailedCells()) != 0 {
		t.Error("cell failed after its program already completed")
	}
}

// Two machines with identical config and seed produce bit-identical
// results under full transient fault injection.
func TestMachineFaultsDeterministic(t *testing.T) {
	run := func() (sim.Time, faults.Stats, Monitor) {
		cfg := KSR1(4)
		cfg.Faults = faults.Uniform(0.05)
		cfg.Faults.CellStallMean = 2 * sim.Millisecond
		cfg.Checked = true
		m := New(cfg)
		shared := m.AllocWords("shared", 64)
		elapsed, err := m.Run(4, func(p *Proc) {
			for i := 0; i < 200; i++ {
				w := shared.Word(int64((i + p.CellID()) % 64))
				if i%3 == 0 {
					p.WriteWord(w, uint64(i))
				} else {
					p.ReadWord(w)
				}
				p.Compute(500)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return elapsed, m.FaultStats(), m.TotalMonitor()
	}

	t1, s1, m1 := run()
	t2, s2, m2 := run()
	if t1 != t2 {
		t.Errorf("elapsed differs across identical runs: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("fault stats differ: %+v vs %+v", s1, s2)
	}
	if m1 != m2 {
		t.Errorf("monitors differ: %+v vs %+v", m1, m2)
	}
	if s1.NACKs == 0 || s1.SlotLosses == 0 || s1.CellStalls == 0 {
		t.Errorf("expected all transient fault classes to fire: %+v", s1)
	}
}

// Config.Validate catches the mistakes the CLI can make.
func TestConfigValidate(t *testing.T) {
	if err := KSR1(16).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := KSR1(64).Validate(); err != nil {
		t.Errorf("two-leaf ring rejected: %v", err)
	}

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero cells", KSR1(0), "at least one cell"},
		{"ring indivisible", KSR1(48), "leaf rings"},
		{"negative rate", KSR1(4).WithFaults(faults.Config{NACKRate: -0.1}), "[0, 1]"},
		{"rate above one", KSR1(4).WithFaults(faults.Config{SlotLossRate: 1.5}), "[0, 1]"},
		{"fail-stop out of range", KSR1(4).WithFaults(faults.Config{
			FailStop: map[int]sim.Time{7: sim.Second},
		}), "out of range"},
		{"fail-stop at zero", KSR1(4).WithFaults(faults.Config{
			FailStop: map[int]sim.Time{1: 0},
		}), "must be positive"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a bad config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
