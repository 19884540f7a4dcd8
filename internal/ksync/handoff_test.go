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

// hwLockProgram is a contended hardware-lock loop: every processor
// increments a shared counter under the lock 10 times.
func hwLockProgram(m *machine.Machine) func(p *machine.Proc) {
	lock := NewHWLock(m)
	ctr := m.AllocWords("ctr", 1).At(0)
	return func(p *machine.Proc) {
		for i := 0; i < 10; i++ {
			lock.Acquire(p)
			p.WriteWord(ctr, p.ReadWord(ctr)+1)
			lock.Release(p)
			p.Compute(200)
		}
	}
}

// tournamentProgram runs 10 episodes of the tournament barrier (global
// wakeup flag) with skewed arrivals.
func tournamentProgram(m *machine.Machine) func(p *machine.Proc) {
	b := NewTournament(m, 32, true)
	return func(p *machine.Proc) {
		for ep := 0; ep < 10; ep++ {
			p.Compute(int64(50 * (p.CellID() + 1)))
			b.Wait(p)
		}
	}
}

// Event and handoff counts of the two programs with the blocking
// transaction paths (one goroutine handoff per park), recorded before
// the transaction paths became continuation chains.
const (
	blockingHWLockEvents       = 47238
	blockingHWLockHandoffs     = 46207
	blockingTournamentEvents   = 5749
	blockingTournamentHandoffs = 4050
)

// TestContinuationHandoffs pins what the continuation chains buy: the
// same events as the blocking paths (so the same simulation) for a
// fraction of the goroutine handoffs. A contended get_sub_page retry
// loop runs entirely as a chain, so the lock program's handoffs must
// fall to at most 5% of the blocking count; the barrier's flag spins
// still park in program code, so its count must merely not grow.
func TestContinuationHandoffs(t *testing.T) {
	events, handoffs := handoffRun(t, hwLockProgram)
	t.Logf("hw lock: %d events, %d handoffs", events, handoffs)
	if events != blockingHWLockEvents {
		t.Errorf("hw lock: %d events, want %d", events, blockingHWLockEvents)
	}
	if handoffs*20 > blockingHWLockHandoffs {
		t.Errorf("hw lock: %d handoffs, want at most 5%% of %d", handoffs, blockingHWLockHandoffs)
	}
	events, handoffs = handoffRun(t, tournamentProgram)
	t.Logf("tournament: %d events, %d handoffs", events, handoffs)
	if events != blockingTournamentEvents {
		t.Errorf("tournament: %d events, want %d", events, blockingTournamentEvents)
	}
	if handoffs > blockingTournamentHandoffs {
		t.Errorf("tournament: %d handoffs, want at most %d", handoffs, blockingTournamentHandoffs)
	}
}
