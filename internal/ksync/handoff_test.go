package ksync

import (
	"testing"

	"repro/internal/machine"
)

// handoffRun runs a fixed 32-processor program on a KSR-1 and returns the
// engine's dispatched events and goroutine handoffs.
func handoffRun(t *testing.T, body func(m *machine.Machine) func(p *machine.Proc)) (events, handoffs uint64) {
	t.Helper()
	m := machine.New(machine.KSR1(32))
	if _, err := m.Run(32, body(m)); err != nil {
		t.Fatal(err)
	}
	return m.Engine().EventsExecuted(), m.Engine().Handoffs()
}

// barrierProgram runs 10 episodes of the barrier newBarrier builds,
// with skewed arrivals.
func barrierProgram(newBarrier func(m *machine.Machine) Barrier) func(m *machine.Machine) func(p *machine.Proc) {
	return func(m *machine.Machine) func(p *machine.Proc) {
		b := newBarrier(m)
		return func(p *machine.Proc) {
			for ep := 0; ep < 10; ep++ {
				p.Compute(int64(50 * (p.CellID() + 1)))
				b.Wait(p)
			}
		}
	}
}

// lockProgram is a contended loop on the lock newLock builds: every
// processor increments a shared counter under the lock 10 times.
func lockProgram(newLock func(m *machine.Machine) Lock) func(m *machine.Machine) func(p *machine.Proc) {
	return func(m *machine.Machine) func(p *machine.Proc) {
		l := newLock(m)
		ctr := m.AllocWords("ctr", 1).At(0)
		return func(p *machine.Proc) {
			for i := 0; i < 10; i++ {
				l.Acquire(p)
				p.WriteWord(ctr, p.ReadWord(ctr)+1)
				l.Release(p)
				p.Compute(200)
			}
		}
	}
}

// Event and handoff counts of the hardware-lock lockProgram with the
// blocking transaction paths (one goroutine handoff per park), recorded
// before the transaction paths became continuation chains.
const (
	blockingHWLockEvents   = 47238
	blockingHWLockHandoffs = 46207
)

// spinProgram is a program whose waits are flag spins, with its event
// and handoff counts from before spins became continuation chains, when
// every spin iteration resumed the spinner's goroutine.
type spinProgram struct {
	name     string
	body     func(m *machine.Machine) func(p *machine.Proc)
	events   uint64
	handoffs uint64
	// maxPercent bounds the chained handoffs as a percentage of the
	// recorded ones; 0 means they must merely be strictly fewer.
	maxPercent uint64
}

var spinPrograms = []spinProgram{
	{
		name:   "counter barrier",
		body:   barrierProgram(func(m *machine.Machine) Barrier { return NewCounter(m, 32) }),
		events: 28892, handoffs: 10918, maxPercent: 15,
	},
	{
		name:   "MCS(M) barrier",
		body:   barrierProgram(func(m *machine.Machine) Barrier { return NewMCS(m, 32, true) }),
		events: 4591, handoffs: 1696,
	},
	{
		name:   "tournament(M) barrier",
		body:   barrierProgram(func(m *machine.Machine) Barrier { return NewTournament(m, 32, true) }),
		events: 5749, handoffs: 2240, maxPercent: 75,
	},
	{
		name:   "Anderson lock",
		body:   lockProgram(func(m *machine.Machine) Lock { return NewAndersonLock(m) }),
		events: 10551, handoffs: 2648,
	},
	{
		name:   "MCS lock",
		body:   lockProgram(func(m *machine.Machine) Lock { return NewMCSLock(m) }),
		events: 14209, handoffs: 4110,
	},
}

// TestContinuationHandoffs pins what the continuation chains buy: the
// same events as before each chain (so the same simulation) for a
// fraction of the goroutine handoffs. A contended get_sub_page retry
// loop runs entirely as a chain, so the lock program's handoffs must
// fall to at most 5% of the blocking count. A flag spin is one chain
// however often its flag changes: the counter barrier, whose 32
// spinners all wake on every arrival, must fall to 15% and the
// tournament(M) barrier to 75%, and every other spinning program must
// hand off strictly less.
func TestContinuationHandoffs(t *testing.T) {
	events, handoffs := handoffRun(t, lockProgram(func(m *machine.Machine) Lock { return NewHWLock(m) }))
	t.Logf("hw lock: %d events, %d handoffs", events, handoffs)
	if events != blockingHWLockEvents {
		t.Errorf("hw lock: %d events, want %d", events, blockingHWLockEvents)
	}
	if handoffs*20 > blockingHWLockHandoffs {
		t.Errorf("hw lock: %d handoffs, want at most 5%% of %d", handoffs, blockingHWLockHandoffs)
	}
	for _, sp := range spinPrograms {
		events, handoffs := handoffRun(t, sp.body)
		t.Logf("%s: %d events, %d handoffs (%d before)", sp.name, events, handoffs, sp.handoffs)
		if events != sp.events {
			t.Errorf("%s: %d events, want %d", sp.name, events, sp.events)
		}
		limit := sp.handoffs - 1
		if sp.maxPercent > 0 {
			limit = sp.handoffs * sp.maxPercent / 100
		}
		if handoffs > limit {
			t.Errorf("%s: %d handoffs, want at most %d (%d before)", sp.name, handoffs, limit, sp.handoffs)
		}
	}
}

// BenchmarkCounterBarrier measures one episode of the counter barrier
// (Algorithm 1) on 32 processors of a KSR-1: 32 fetch-and-adds on the
// counter's sub-page, each of which wakes every processor already
// spinning on it.
func BenchmarkCounterBarrier(b *testing.B) {
	const procs = 32
	m := machine.New(machine.KSR1(procs))
	bar := NewCounter(m, procs)
	// Warm up: every cell's caches, directory entries and chain records
	// exist before the timer starts.
	if _, err := m.Run(procs, bar.Wait); err != nil {
		b.Fatal(err)
	}
	handoffs := m.Engine().Handoffs()
	b.ReportAllocs()
	b.ResetTimer()
	_, err := m.Run(procs, func(p *machine.Proc) {
		for i := 0; i < b.N; i++ {
			bar.Wait(p)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.Engine().Handoffs()-handoffs)/float64(b.N), "handoffs/op")
}

// BenchmarkPoststoreBarrier measures one episode of the dissemination
// barrier on 32 processors of a KSR-1: five rounds in which every
// processor writes and poststores its partner's flag, so each episode
// puts 160 fire-and-forget poststore transactions on the ring. After a
// warm-up run the poststores' transaction records are pooled, so an
// episode allocates nothing. The timer starts after one more episode,
// once every process of the measured run has been spawned, so its
// allocations stay out of allocs/op however small b.N is.
func BenchmarkPoststoreBarrier(b *testing.B) {
	const procs = 32
	m := machine.New(machine.KSR1(procs))
	bar := NewDissemination(m, procs)
	if _, err := m.Run(procs, bar.Wait); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	_, err := m.Run(procs, func(p *machine.Proc) {
		bar.Wait(p)
		if p.CellID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			bar.Wait(p)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
