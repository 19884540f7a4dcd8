package ksync

import (
	"repro/internal/machine"
	"repro/internal/memory"
)

// MCS is the Mellor-Crummey/Scott tree barrier: processors occupy every
// node of a 4-ary arrival tree (parents arrive at internal nodes), and a
// binary tree distributes the wakeup. Faithful to both the original and
// the paper's analysis, each parent spins on ONE packed word whose four
// child slots share a sub-page — so the four children's arrival stores
// are serialized by ownership ping-pong, and false sharing costs a ring
// transaction per store. This packing is the very effect the paper blames
// for MCS losing to tournament on the KSR-1 (and it is deliberate here:
// padding it away would implement a different algorithm).
//
// wakeupFlag selects mcs(M): global-flag wakeup instead of the binary
// wakeup tree.
type MCS struct {
	m     *machine.Machine
	procs int
	// UsePoststore pushes wakeup writes to spinners' place-holders.
	UsePoststore bool
	wakeupFlag   bool

	childNotReady machine.PerCell // per proc: 4 packed words, one sub-page
	wakeup        machine.PerCell // per proc: padded wakeup word
	global        memory.Addr
	epoch         []uint64
}

// NewMCS builds the barrier. wakeupFlag selects mcs(M).
func NewMCS(m *machine.Machine, procs int, wakeupFlag bool) *MCS {
	return &MCS{
		m:             m,
		procs:         procs,
		UsePoststore:  true,
		wakeupFlag:    wakeupFlag,
		childNotReady: m.AllocPerCell("barrier.mcs.childnotready"),
		wakeup:        m.AllocPerCell("barrier.mcs.wakeup"),
		global:        m.AllocPadded("barrier.mcs.global", 1).PaddedSlot(0),
		epoch:         make([]uint64, procs),
	}
}

// Name implements Barrier.
func (b *MCS) Name() string {
	if b.wakeupFlag {
		return "mcs(M)"
	}
	return "mcs"
}

// arrivalChildren returns how many 4-ary children processor id has.
func (b *MCS) arrivalChildren(id int) int {
	n := 0
	for j := 1; j <= 4; j++ {
		if 4*id+j < b.procs {
			n++
		}
	}
	return n
}

// childSlot returns the packed word the j-th child of parent writes.
func (b *MCS) childSlot(parent, j int) memory.Addr {
	return b.childNotReady.Addr(parent) + memory.Addr(j*memory.WordSize)
}

// Wait implements Barrier.
func (b *MCS) Wait(p *machine.Proc) {
	id := p.CellID()
	e := b.epoch[id] + 1
	b.epoch[id] = e

	// Arrival: wait for my 4-ary children on the packed word, then report
	// to my parent's packed word (the false-sharing store).
	if nc := b.arrivalChildren(id); nc > 0 {
		p.SpinUntilAllAtLeast(b.childNotReady.Addr(id), nc, e)
	}
	if id != 0 {
		parent := (id - 1) / 4
		j := (id - 1) % 4
		signal(p, b.childSlot(parent, j), e, false)
	}

	if b.wakeupFlag {
		if id == 0 {
			signal(p, b.global, e, b.UsePoststore)
		} else {
			p.SpinUntilAtLeast(b.global, e)
		}
		return
	}

	// Binary wakeup tree: wait for my wakeup (unless root), then release
	// my two wakeup children.
	if id != 0 {
		p.SpinUntilAtLeast(b.wakeup.Addr(id), e)
	}
	for _, c := range []int{2*id + 1, 2*id + 2} {
		if c < b.procs {
			signal(p, b.wakeup.Addr(c), e, b.UsePoststore)
		}
	}
}
