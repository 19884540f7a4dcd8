package ksync

import (
	"repro/internal/machine"
	"repro/internal/memory"
)

// This file implements the two classic queue locks from the paper's
// citations — Anderson's array-based queue lock [1] and the
// Mellor-Crummey/Scott list-based queue lock [13] — as an extension study:
// the paper built its read-write lock on Anderson's ticket idea and cites
// MCS for the barrier algorithms, so the natural follow-on question is how
// the cited queue locks themselves behave on the ring. Both run on every
// machine model.

// Lock is a plain mutual-exclusion lock.
type Lock interface {
	Name() string
	Acquire(p *machine.Proc)
	Release(p *machine.Proc)
}

// Name implements Lock for HWLock.
func (l *HWLock) Name() string { return "hw-exclusive" }

// AndersonLock is Anderson's array-based queue lock: a ticket counter
// plus a ring of per-slot flags, each padded to its own sub-page so that
// a release invalidates exactly one waiter's spin location.
type AndersonLock struct {
	m *machine.Machine
	// UsePoststore pushes the handoff flag to the next waiter.
	UsePoststore bool

	ticket memory.Addr // next slot to take (gsp-protected)
	slots  memory.Region
	nslots uint64
	held   []uint64 // per-cell current ticket (single-threaded sim)
}

// NewAndersonLock builds the lock with one slot per cell.
func NewAndersonLock(m *machine.Machine) *AndersonLock {
	n := uint64(2 * m.Cells())
	l := &AndersonLock{
		m:            m,
		UsePoststore: true,
		ticket:       m.AllocPadded("lock.anderson.ticket", 1).PaddedSlot(0),
		slots:        m.AllocPadded("lock.anderson.slots", int64(n)),
		nslots:       n,
		held:         make([]uint64, m.Cells()),
	}
	// Slot values hold pass numbers: slot i is open on pass k when its
	// value reaches k+1. Slot 0 starts open for pass 0.
	m.Space().WriteWord(l.slots.PaddedSlot(0), 1)
	return l
}

// Name implements Lock.
func (l *AndersonLock) Name() string { return "anderson" }

func (l *AndersonLock) slot(t uint64) memory.Addr {
	return l.slots.PaddedSlot(int64(t % l.nslots))
}

// Acquire takes a ticket and spins on its own padded slot.
func (l *AndersonLock) Acquire(p *machine.Proc) {
	t := p.FetchAdd(l.ticket, 1)
	pass := t/l.nslots + 1
	p.SpinUntilAtLeast(l.slot(t), pass)
	l.held[p.CellID()] = t
}

// Release opens the next slot.
func (l *AndersonLock) Release(p *machine.Proc) {
	t := l.held[p.CellID()]
	next := t + 1
	pass := next/l.nslots + 1
	addr := l.slot(next)
	p.WriteWord(addr, pass)
	if l.UsePoststore {
		p.Poststore(addr)
	}
}

// MCSLock is the Mellor-Crummey/Scott list-based queue lock: each waiter
// enqueues a record and spins on its own flag; release hands the lock
// directly to the successor. On the butterfly the per-cell records are
// home-local (the "spin on locally accessible memory" property the MCS
// paper was designed around); on the KSR the coherent caches provide the
// same local spinning.
//
// The atomic swap/compare-and-swap of the real algorithm is modelled with
// a gsp-protected tail word, which is exactly how such primitives are
// built on the KSR-1.
type MCSLock struct {
	m *machine.Machine
	// UsePoststore pushes the handoff to the successor's spin flag.
	UsePoststore bool

	tail  memory.Addr     // holds cell id + 1, 0 = free (gsp-protected)
	nodes machine.PerCell // per-cell record: word0 = locked flag, word1 = next
}

// NewMCSLock builds the lock.
func NewMCSLock(m *machine.Machine) *MCSLock {
	return &MCSLock{
		m:            m,
		UsePoststore: true,
		tail:         m.AllocPadded("lock.mcs.tail", 1).PaddedSlot(0),
		nodes:        m.AllocPerCell("lock.mcs.nodes"),
	}
}

// Name implements Lock.
func (l *MCSLock) Name() string { return "mcs-queue" }

func (l *MCSLock) flagOf(cell int) memory.Addr { return l.nodes.Addr(cell) }
func (l *MCSLock) nextOf(cell int) memory.Addr {
	return l.nodes.Addr(cell) + memory.WordSize
}

// Acquire enqueues and spins on the private flag.
func (l *MCSLock) Acquire(p *machine.Proc) {
	me := p.CellID()
	// Reset my record, then swap myself in as the tail.
	p.WriteWord(l.nextOf(me), 0)
	p.WriteWord(l.flagOf(me), 0)
	pred := p.FetchStore(l.tail, uint64(me)+1)
	if pred == 0 {
		return // lock was free
	}
	// Link behind the predecessor and spin on my own flag.
	p.WriteWord(l.nextOf(int(pred-1)), uint64(me)+1)
	p.SpinUntilAtLeast(l.flagOf(me), 1)
	p.WriteWord(l.flagOf(me), 0) // consume the grant
}

// Release hands the lock to the successor, or frees it.
func (l *MCSLock) Release(p *machine.Proc) {
	me := p.CellID()
	succ := p.ReadWord(l.nextOf(me))
	if succ == 0 {
		// No visible successor: close the queue if still tail, else wait
		// for the slow enqueuer to link itself.
		if p.CompareAndSwap(l.tail, uint64(me)+1, 0) {
			return
		}
		succ = p.SpinUntilAtLeast(l.nextOf(me), 1)
	}
	addr := l.flagOf(int(succ - 1))
	p.WriteWord(addr, 1)
	if l.UsePoststore {
		p.Poststore(addr)
	}
}
