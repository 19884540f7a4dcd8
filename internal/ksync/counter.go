package ksync

import (
	"repro/internal/machine"
	"repro/internal/memory"
)

// Counter is the naive central-counter barrier (Algorithm 1). Every
// arrival performs an atomic increment — implemented, as on the real
// machine, with get_sub_page — and then every processor spins on the
// counter itself. Each arrival therefore costs at least two ring accesses
// (fetch the counter, redistribute it to the spinners), all serialized on
// one sub-page: the hot spot the paper blames for this algorithm's poor
// showing.
//
// Two counters are used in alternation so consecutive episodes never race
// on reuse; each counts monotonically upward, and episode j of a counter
// completes when it reaches (j+1)*P.
type Counter struct {
	m     *machine.Machine
	procs int
	// UsePoststore has no effect here (the counter is updated under the
	// atomic lock, not with ordinary stores); kept for interface symmetry.
	counters [2]memory.Addr
	epoch    []uint64 // per-proc episode number
}

// NewCounter builds the counter barrier for procs participants.
func NewCounter(m *machine.Machine, procs int) *Counter {
	r := m.AllocPadded("barrier.counter", 2)
	return &Counter{
		m:        m,
		procs:    procs,
		counters: [2]memory.Addr{r.PaddedSlot(0), r.PaddedSlot(1)},
		epoch:    make([]uint64, procs),
	}
}

// Name implements Barrier.
func (b *Counter) Name() string { return "counter" }

// Wait implements Barrier.
func (b *Counter) Wait(p *machine.Proc) {
	id := p.CellID()
	k := b.epoch[id]
	b.epoch[id]++
	ctr := b.counters[k%2]
	target := (k/2 + 1) * uint64(b.procs)
	p.FetchAdd(ctr, 1)
	// Spin on the counter itself, as the paper's Algorithm 1 does.
	p.SpinUntilAtLeast(ctr, target)
}
