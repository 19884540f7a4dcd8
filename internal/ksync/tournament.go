package ksync

import (
	"repro/internal/machine"
	"repro/internal/memory"
)

// Tournament is the statically determined binary-tree barrier (Algorithm
// 4): in round k processor i competes with i+2^(k-1); the winner of each
// pairing is fixed in advance (the lower index), so the loser simply
// writes the winner's arrival flag and parks. At each level all pairings
// communicate concurrently — one ring transaction apiece — which is the
// property that lets the pipelined ring run a whole level in parallel.
//
// Completion: with wakeupFlag false the champion descends the bracket,
// waking each round's loser, who wakes its own losers in turn; with
// wakeupFlag true — tournament(M), the paper's overall winner on the
// KSR-1 — the champion raises a global flag.
type Tournament struct {
	m     *machine.Machine
	procs int
	// UsePoststore pushes flag writes to spinners' place-holders.
	UsePoststore bool
	wakeupFlag   bool

	rounds  int
	arrival []machine.PerCell // arrival[r].Addr(i): winner i's round-r flag
	wakeup  machine.PerCell   // one wakeup word per processor
	global  memory.Addr
	epoch   []uint64
}

// NewTournament builds the barrier. wakeupFlag selects tournament(M).
func NewTournament(m *machine.Machine, procs int, wakeupFlag bool) *Tournament {
	b := &Tournament{
		m:            m,
		procs:        procs,
		UsePoststore: true,
		wakeupFlag:   wakeupFlag,
		rounds:       log2ceil(procs),
		epoch:        make([]uint64, procs),
	}
	if b.rounds == 0 {
		b.rounds = 1
	}
	for r := 0; r < b.rounds; r++ {
		b.arrival = append(b.arrival, m.AllocPerCell("barrier.tournament.arrival"))
	}
	b.wakeup = m.AllocPerCell("barrier.tournament.wakeup")
	b.global = m.AllocPadded("barrier.tournament.global", 1).PaddedSlot(0)
	return b
}

// Name implements Barrier.
func (b *Tournament) Name() string {
	if b.wakeupFlag {
		return "tournament(M)"
	}
	return "tournament"
}

// wakeLosers signals the loser of every round below k in processor i's
// bracket (i won rounds 1..k-1 by construction).
func (b *Tournament) wakeLosers(p *machine.Proc, id, k int, e uint64) {
	for kk := k - 1; kk >= 1; kk-- {
		loser := id + 1<<(kk-1)
		if loser < b.procs {
			signal(p, b.wakeup.Addr(loser), e, b.UsePoststore)
		}
	}
}

// Wait implements Barrier.
func (b *Tournament) Wait(p *machine.Proc) {
	id := p.CellID()
	e := b.epoch[id] + 1
	b.epoch[id] = e

	lostAt := 0 // round this processor lost in; 0 = champion
	for k := 1; k <= b.rounds; k++ {
		step, half := 1<<k, 1<<(k-1)
		switch id % step {
		case 0:
			if partner := id + half; partner < b.procs {
				// Statically determined winner: wait for the loser.
				p.SpinUntilAtLeast(b.arrival[k-1].Addr(id), e)
			}
			// else: bye — advance unopposed.
		case half:
			// Statically determined loser: report to the winner, park.
			signal(p, b.arrival[k-1].Addr(id-half), e, b.UsePoststore)
			lostAt = k
		}
		if lostAt != 0 {
			break
		}
	}

	if b.wakeupFlag {
		if lostAt == 0 {
			signal(p, b.global, e, b.UsePoststore)
		} else {
			p.SpinUntilAtLeast(b.global, e)
		}
		return
	}

	if lostAt == 0 {
		b.wakeLosers(p, id, b.rounds+1, e)
		return
	}
	p.SpinUntilAtLeast(b.wakeup.Addr(id), e)
	b.wakeLosers(p, id, lostAt, e)
}
