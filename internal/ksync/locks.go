package ksync

import (
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/prof"
)

// HWLock is the naive hardware exclusive lock of Section 3.2.1: a bare
// get_sub_page/release_sub_page pair on one sub-page. It serializes all
// requests — readers included — and guarantees only forward progress, not
// FCFS: on every release all waiters race, one wins, and each loser pays a
// full ring transit.
type HWLock struct {
	addr memory.Addr
}

// NewHWLock allocates the lock's sub-page.
func NewHWLock(m *machine.Machine) *HWLock {
	return &HWLock{addr: m.AllocPadded("lock.hw", 1).PaddedSlot(0)}
}

// Acquire spins until the sub-page is held atomically.
func (l *HWLock) Acquire(p *machine.Proc) {
	span := p.ProfSpan(prof.PhaseLock)
	if r := p.Obs(); r.Enabled(obs.CatSync) {
		start := p.Now()
		p.AcquireSubPage(l.addr)
		r.CompleteAt(obs.CatSync, p.CellID(), "hwlock.acquire", start, p.Now())
		p.ProfSpanEnd(span)
		return
	}
	p.AcquireSubPage(l.addr)
	p.ProfSpanEnd(span)
}

// Release drops the atomic hold.
func (l *HWLock) Release(p *machine.Proc) {
	span := p.ProfSpan(prof.PhaseLock)
	p.ReleaseSubPage(l.addr)
	p.ProfSpanEnd(span)
	if r := p.Obs(); r.Enabled(obs.CatSync) {
		r.Instant(obs.CatSync, p.CellID(), "hwlock.release")
	}
}

// Token identifies one granted RWLock request.
type Token struct {
	ticket uint64
	read   bool
}

// RWLock is the paper's software read-write lock: a modified Anderson
// ticket lock in which consecutive read requests are combined onto one
// ticket, so concurrent readers share a grant while writers get exclusive
// tickets. Tickets are issued under the get_sub_page primitive; a strict
// FCFS order falls out of the ticket sequence. Metadata layout:
//
//	meta sub-page (gsp-protected): word0 = next ticket, word1 = open read
//	    batch ticket (0 = none);
//	serving sub-page: the ticket currently being served (hot spin target,
//	    updated with poststore);
//	counts: per-batch reader counts, padded, indexed by ticket mod K.
type RWLock struct {
	m *machine.Machine
	// UsePoststore pushes serving-ticket updates to the spinners.
	UsePoststore bool

	meta    memory.Addr // word0 next ticket, word1 open read batch
	serving memory.Addr
	counts  memory.Region
	k       uint64
}

const (
	rwNextOff  = 0 * memory.WordSize
	rwBatchOff = 1 * memory.WordSize
)

// NewRWLock builds the lock.
func NewRWLock(m *machine.Machine) *RWLock {
	k := uint64(4 * m.Cells())
	if k < 64 {
		k = 64
	}
	l := &RWLock{
		m:            m,
		UsePoststore: true,
		meta:         m.AllocPadded("lock.rw.meta", 1).PaddedSlot(0),
		serving:      m.AllocPadded("lock.rw.serving", 1).PaddedSlot(0),
		counts:       m.AllocPadded("lock.rw.counts", int64(k)),
		k:            k,
	}
	// Tickets start at 1; ticket 0 is "none". serving=1 means ticket 1
	// may enter as soon as it is issued.
	m.Space().WriteWord(l.meta+rwNextOff, 1)
	m.Space().WriteWord(l.serving, 1)
	return l
}

func (l *RWLock) countAddr(ticket uint64) memory.Addr {
	return l.counts.PaddedSlot(int64(ticket % l.k))
}

// Acquire obtains the lock in read-shared (read=true) or write-exclusive
// mode, returning the token to pass to Release.
func (l *RWLock) Acquire(p *machine.Proc, read bool) Token {
	span := p.ProfSpan(prof.PhaseLock)
	defer p.ProfSpanEnd(span)
	start := p.Now()
	p.AcquireSubPage(l.meta)
	next := p.ReadWord(l.meta + rwNextOff)
	batch := p.ReadWord(l.meta + rwBatchOff)
	var my uint64
	if read && batch != 0 && batch == next-1 && p.ReadWord(l.serving) <= batch {
		// Combine with the still-open trailing read batch.
		my = batch
		cnt := l.countAddr(my)
		p.WriteWord(cnt, p.ReadWord(cnt)+1)
	} else {
		my = next
		p.WriteWord(l.meta+rwNextOff, next+1)
		if read {
			p.WriteWord(l.meta+rwBatchOff, my)
			p.WriteWord(l.countAddr(my), 1)
		} else {
			p.WriteWord(l.meta+rwBatchOff, 0)
		}
	}
	p.ReleaseSubPage(l.meta)
	p.SpinUntilAtLeast(l.serving, my)
	if r := p.Obs(); r.Enabled(obs.CatSync) {
		mode := int64(0)
		if read {
			mode = 1
		}
		r.CompleteAt(obs.CatSync, p.CellID(), "rwlock.acquire", start, p.Now(),
			obs.Arg{Key: "read", Val: mode}, obs.Arg{Key: "ticket", Val: int64(my)})
	}
	return Token{ticket: my, read: read}
}

// Release returns the lock. The last reader of a batch, or the writer,
// advances the serving ticket.
func (l *RWLock) Release(p *machine.Proc, t Token) {
	span := p.ProfSpan(prof.PhaseLock)
	defer p.ProfSpanEnd(span)
	if r := p.Obs(); r.Enabled(obs.CatSync) {
		r.Instant(obs.CatSync, p.CellID(), "rwlock.release", obs.Arg{Key: "ticket", Val: int64(t.ticket)})
	}
	if !t.read {
		signal(p, l.serving, t.ticket+1, l.UsePoststore)
		return
	}
	p.AcquireSubPage(l.meta)
	cnt := l.countAddr(t.ticket)
	left := p.ReadWord(cnt) - 1
	p.WriteWord(cnt, left)
	if left == 0 {
		// Close the batch so late readers open a fresh ticket.
		if p.ReadWord(l.meta+rwBatchOff) == t.ticket {
			p.WriteWord(l.meta+rwBatchOff, 0)
		}
		signal(p, l.serving, t.ticket+1, l.UsePoststore)
	}
	p.ReleaseSubPage(l.meta)
}
