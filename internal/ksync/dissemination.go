package ksync

import (
	"repro/internal/machine"
)

// Dissemination is the Hensgen/Finkel/Manber dissemination barrier: in
// each of ceil(log2 P) rounds every processor signals the peer 2^r ahead
// of it (mod P) and waits for the peer 2^r behind. All P signals of a
// round can fly in parallel — which is why the pipelined ring (and the
// Butterfly's parallel paths) like it, the bus hates it, and its O(P log P)
// total traffic keeps it mid-pack on the KSR.
type Dissemination struct {
	m     *machine.Machine
	procs int
	// UsePoststore pushes each round's signal to its waiter.
	UsePoststore bool

	rounds int
	flags  []machine.PerCell // flags[r].Addr(i): proc i's round-r flag
	epoch  []uint64
}

// NewDissemination builds the barrier for procs participants.
func NewDissemination(m *machine.Machine, procs int) *Dissemination {
	b := &Dissemination{
		m:            m,
		procs:        procs,
		UsePoststore: true,
		rounds:       log2ceil(procs),
		epoch:        make([]uint64, procs),
	}
	if b.rounds == 0 {
		b.rounds = 1
	}
	for r := 0; r < b.rounds; r++ {
		b.flags = append(b.flags, m.AllocPerCell("barrier.dissemination.round"))
	}
	return b
}

// Name implements Barrier.
func (b *Dissemination) Name() string { return "dissemination" }

// Wait implements Barrier.
func (b *Dissemination) Wait(p *machine.Proc) {
	id := p.CellID()
	e := b.epoch[id] + 1
	b.epoch[id] = e
	for r := 0; r < b.rounds; r++ {
		partner := (id + (1 << r)) % b.procs
		signal(p, b.flags[r].Addr(partner), e, b.UsePoststore)
		p.SpinUntilAtLeast(b.flags[r].Addr(id), e)
	}
}
