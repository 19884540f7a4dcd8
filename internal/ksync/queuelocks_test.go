package ksync

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// lockExclusionCheck runs ops lock/unlock pairs per proc and verifies
// mutual exclusion plus completion.
func lockExclusionCheck(t *testing.T, m *machine.Machine, l Lock, procs, ops int) {
	t.Helper()
	in, maxIn, total := 0, 0, 0
	_, err := m.Run(procs, func(p *machine.Proc) {
		for i := 0; i < ops; i++ {
			l.Acquire(p)
			in++
			if in > maxIn {
				maxIn = in
			}
			total++
			p.Compute(int64(200 + 37*p.CellID()%5))
			in--
			l.Release(p)
			p.Compute(150)
		}
	})
	if err != nil {
		t.Fatalf("%T: %v", l, err)
	}
	if maxIn != 1 {
		t.Errorf("%T: %d holders at once", l, maxIn)
	}
	if total != procs*ops {
		t.Errorf("%T: %d operations completed, want %d", l, total, procs*ops)
	}
}

func TestQueueLocksAllMachines(t *testing.T) {
	configs := []machine.Config{
		machine.KSR1(8), machine.KSR2(8), machine.Symmetry(8), machine.Butterfly(8),
	}
	for _, cfg := range configs {
		for _, lk := range []struct {
			name string
			mk   func(*machine.Machine) Lock
		}{
			{"anderson", func(m *machine.Machine) Lock { return NewAndersonLock(m) }},
			{"mcs-queue", func(m *machine.Machine) Lock { return NewMCSLock(m) }},
		} {
			m := machine.New(cfg)
			l := lk.mk(m)
			t.Run(cfg.Name+"/"+lk.name, func(t *testing.T) {
				lockExclusionCheck(t, m, l, 8, 6)
			})
		}
	}
}

func TestHWLockSatisfiesLockInterface(t *testing.T) {
	m := machine.New(machine.KSR1(4))
	var l Lock = NewHWLock(m)
	lockExclusionCheck(t, m, l, 4, 4)
}

func TestAndersonFIFOOrder(t *testing.T) {
	m := machine.New(machine.KSR1(8))
	l := NewAndersonLock(m)
	var order []int
	_, err := m.Run(4, func(p *machine.Proc) {
		p.Compute(int64(3000 * p.CellID()))
		l.Acquire(p)
		order = append(order, p.CellID())
		p.Compute(100000)
		l.Release(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("anderson grant order %v, want FIFO", order)
		}
	}
}

func TestMCSLockHandoffOrder(t *testing.T) {
	m := machine.New(machine.KSR1(8))
	l := NewMCSLock(m)
	var order []int
	_, err := m.Run(4, func(p *machine.Proc) {
		p.Compute(int64(5000 * p.CellID()))
		l.Acquire(p)
		order = append(order, p.CellID())
		p.Compute(200000)
		l.Release(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("mcs grant order %v, want FIFO", order)
		}
	}
}

func TestMCSLockUncontendedFastPath(t *testing.T) {
	m := machine.New(machine.KSR1(4))
	l := NewMCSLock(m)
	var acquire sim.Time
	_, err := m.Run(1, func(p *machine.Proc) {
		l.Acquire(p)
		l.Release(p)
		t0 := p.Now()
		l.Acquire(p)
		acquire = p.Now() - t0
		l.Release(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm uncontended acquire: one gsp round trip (2 ring transits) plus
	// local work — well under 30 us.
	if acquire > 30*sim.Microsecond {
		t.Errorf("uncontended mcs acquire = %v, too slow", acquire)
	}
}

func TestQueueLocksCutInterconnectTraffic(t *testing.T) {
	// What queue locks buy: O(1) fabric transactions per handoff instead
	// of a retry per waiter per release. Wall-clock time is similar in
	// this model (the hw lock's waiters sleep between releases rather
	// than polling continuously, and the queue locks pay gsp-synthesized
	// atomics), so the measurable win is traffic — which is what hurts
	// everything ELSE sharing the interconnect.
	const procs, ops = 16, 8
	run := func(mk func(m *machine.Machine) Lock) (sim.Time, uint64) {
		m := machine.New(machine.KSR1(16))
		l := mk(m)
		el, err := m.Run(procs, func(p *machine.Proc) {
			for i := 0; i < ops; i++ {
				l.Acquire(p)
				p.Compute(500)
				l.Release(p)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return el, m.Fabric().Stats().Transactions
	}
	hwT, hwTxn := run(func(m *machine.Machine) Lock { return NewHWLock(m) })
	andT, andTxn := run(func(m *machine.Machine) Lock { return NewAndersonLock(m) })
	mcsT, mcsTxn := run(func(m *machine.Machine) Lock { return NewMCSLock(m) })
	if andTxn >= hwTxn {
		t.Errorf("anderson traffic %d not below hw retry-storm traffic %d", andTxn, hwTxn)
	}
	if mcsTxn >= hwTxn {
		t.Errorf("mcs queue traffic %d not below hw retry-storm traffic %d", mcsTxn, hwTxn)
	}
	// And neither may cost more than ~1.5x the time.
	if andT > hwT*3/2 || mcsT > hwT*3/2 {
		t.Errorf("queue locks too slow: hw %v, anderson %v, mcs %v", hwT, andT, mcsT)
	}
}

func TestFetchStoreAndCASPrimitives(t *testing.T) {
	for _, cfg := range []machine.Config{machine.KSR1(4), machine.Butterfly(4)} {
		m := machine.New(cfg)
		w := m.AllocPadded("w", 1).PaddedSlot(0)
		_, err := m.Run(1, func(p *machine.Proc) {
			if old := p.FetchStore(w, 5); old != 0 {
				t.Errorf("%s: FetchStore old = %d, want 0", cfg.Name, old)
			}
			if old := p.FetchStore(w, 9); old != 5 {
				t.Errorf("%s: FetchStore old = %d, want 5", cfg.Name, old)
			}
			if p.CompareAndSwap(w, 7, 1) {
				t.Errorf("%s: CAS succeeded with wrong old", cfg.Name)
			}
			if !p.CompareAndSwap(w, 9, 1) {
				t.Errorf("%s: CAS failed with right old", cfg.Name)
			}
			if got := p.ReadWord(w); got != 1 {
				t.Errorf("%s: final value %d, want 1", cfg.Name, got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
