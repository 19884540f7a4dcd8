package machine

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/prof"
	"repro/internal/sim"
)

// A fail-stop that comes due inside a chain — while a cell waits inside
// AcquireSubPage, between two fills of one ReadRange, or inside a flag
// spin — halts that cell in its own goroutine. The step that notices it
// runs in another cell's goroutine, so it must end the chain rather than
// panic there: the other cell finishes its program, and only the failing
// cell halts.
func TestFailStopInsideChainHaltsOwnCell(t *testing.T) {
	t.Run("AcquireSubPage", func(t *testing.T) {
		cfg := KSR1(2)
		cfg.Faults = faults.Config{FailStop: map[int]sim.Time{1: 50 * sim.Microsecond}}
		m := New(cfg)
		lock := m.AllocPadded("lock", 1).PaddedSlot(0)
		finished := make([]bool, 2)
		_, err := m.Run(2, func(p *Proc) {
			if p.CellID() == 0 {
				p.AcquireSubPage(lock)
				p.Compute(4000) // 200 us: cell 1's fail-stop comes due meanwhile
				p.ReleaseSubPage(lock)
				p.Compute(100) // cell 1's retry step runs in this park
			} else {
				p.Compute(20) // let cell 0 win the sub-page
				p.AcquireSubPage(lock)
			}
			finished[p.CellID()] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !finished[0] || finished[1] {
			t.Errorf("finished = %v, want cell 0 only", finished)
		}
		if got := m.FailedCells(); len(got) != 1 || got[0] != 1 {
			t.Errorf("FailedCells = %v, want [1]", got)
		}
		if r := m.CellAt(1).Monitor().GSPRetries; r == 0 {
			t.Error("cell 1 never failed a get_sub_page, so it never waited inside AcquireSubPage")
		}
	})
	t.Run("ReadRange", func(t *testing.T) {
		// Cell 1 reads two sub-pages cell 0 owns from 50 us on. Its
		// first fill lands about 9 us later, after the fail-stop at
		// 55 us, so the second word's access finds it due.
		cfg := KSR1(2)
		cfg.Faults = faults.Config{FailStop: map[int]sim.Time{1: 55 * sim.Microsecond}}
		m := New(cfg)
		data := m.Alloc("data", 2*memory.SubPageSize)
		finished := make([]bool, 2)
		_, err := m.Run(2, func(p *Proc) {
			if p.CellID() == 0 {
				p.WriteRange(data.At(0), 2, memory.SubPageSize)
				// Short computes keep cell 0 parking after cell 1, so
				// cell 1's fill steps run in cell 0's goroutine.
				for i := 0; i < 400; i++ {
					p.Compute(10)
				}
			} else {
				p.Compute(1000) // 50 us: cell 0 owns both sub-pages by then
				p.ReadRange(data.At(0), 2, memory.SubPageSize)
			}
			finished[p.CellID()] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !finished[0] || finished[1] {
			t.Errorf("finished = %v, want cell 0 only", finished)
		}
		if got := m.FailedCells(); len(got) != 1 || got[0] != 1 {
			t.Errorf("FailedCells = %v, want [1]", got)
		}
		// The first word was accessed and filled; the second word's
		// access never began.
		if mon := m.CellAt(1).Monitor(); mon.Accesses != 1 || mon.RemoteAccesses != 1 {
			t.Errorf("cell 1: %d accesses, %d remote, want 1 and 1 (halted between the two fills)",
				mon.Accesses, mon.RemoteAccesses)
		}
	})
	t.Run("SpinUntilAtLeast", func(t *testing.T) {
		// Cell 1 spins on a flag cell 0 raises at 100 us. Its fail-stop
		// comes due at 50 us, while it is parked waiting for the flag's
		// sub-page to change, so the reread after the wake finds it due.
		cfg := KSR1(2)
		cfg.Faults = faults.Config{FailStop: map[int]sim.Time{1: 50 * sim.Microsecond}}
		m := New(cfg)
		flag := m.AllocPadded("flag", 1).PaddedSlot(0)
		finished := make([]bool, 2)
		var raisedAt, haltedAt sim.Time
		_, err := m.Run(2, func(p *Proc) {
			if p.CellID() == 0 {
				p.Compute(2000) // 100 us
				raisedAt = p.Now()
				p.WriteWord(flag, 1)
				// Short computes keep cell 0 parking after cell 1, so
				// cell 1's wake step runs in cell 0's goroutine.
				for i := 0; i < 100; i++ {
					p.Compute(10)
				}
			} else {
				defer func() { haltedAt = p.Now() }()
				p.SpinUntilAtLeast(flag, 1)
			}
			finished[p.CellID()] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !finished[0] || finished[1] {
			t.Errorf("finished = %v, want cell 0 only", finished)
		}
		if got := m.FailedCells(); len(got) != 1 || got[0] != 1 {
			t.Errorf("FailedCells = %v, want [1]", got)
		}
		if haltedAt < raisedAt {
			t.Errorf("cell 1 halted at %v, before the flag was raised at %v", haltedAt, raisedAt)
		}
		// The first read was made; the reread never began.
		if a := m.CellAt(1).Monitor().Accesses; a != 1 {
			t.Errorf("cell 1: %d accesses, want 1 (halted before the reread)", a)
		}
	})
	t.Run("SpinUntilAtLeastButterfly", func(t *testing.T) {
		// Cell 1 polls a flag homed on cell 0's module: a 2 us probe,
		// then a 1 us gap, from 0 us on. Its fail-stop comes due at
		// 10 us, inside the probe that ends at 11 us, so the poll gap
		// after that probe finds it due.
		cfg := Butterfly(2)
		cfg.Faults = faults.Config{FailStop: map[int]sim.Time{1: 10 * sim.Microsecond}}
		m := New(cfg)
		flag := m.AllocPerCell("flag").Addr(0)
		var probed, haltedAt sim.Time
		m.prof.Access = func(cell int, _ prof.Phase, _ sim.Time) {
			if cell == 1 {
				probed = m.Now()
			}
		}
		finished := make([]bool, 2)
		_, err := m.Run(2, func(p *Proc) {
			if p.CellID() == 0 {
				p.Compute(400) // 20 us
				p.WriteWord(flag, 1)
			} else {
				defer func() { haltedAt = p.Now() }()
				p.SpinUntilAtLeast(flag, 1)
			}
			finished[p.CellID()] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !finished[0] || finished[1] {
			t.Errorf("finished = %v, want cell 0 only", finished)
		}
		if got := m.FailedCells(); len(got) != 1 || got[0] != 1 {
			t.Errorf("FailedCells = %v, want [1]", got)
		}
		if haltedAt != 11*sim.Microsecond || probed != haltedAt {
			t.Errorf("cell 1 halted at %v, last probe ended at %v; want both at 11us (in the poll gap)",
				haltedAt, probed)
		}
	})
}

// Engine.Shutdown unwinds a processor parked in the middle of a fill
// without running the fill's next step: the transaction never lands.
func TestShutdownUnwindsParkedFill(t *testing.T) {
	m := New(KSR1(2))
	data := m.Alloc("data", memory.SubPageSize)
	m.Engine().SetDeadline(2 * sim.Microsecond) // a remote read takes about 9 us
	unwound := false
	_, err := m.Run(1, func(p *Proc) {
		defer func() { unwound = true }()
		p.Read(data.At(0))
		t.Error("the read completed before the deadline")
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds := m.Directory().Stats(); ds.ReadFetches != 1 {
		t.Fatalf("%d read fetches at the deadline, want 1 in flight", ds.ReadFetches)
	}
	m.Close()
	if !unwound {
		t.Error("Shutdown did not unwind the processor's program")
	}
	if mon := m.CellAt(0).Monitor(); mon.RemoteAccesses != 0 {
		t.Errorf("Shutdown ran the fill's step: %d remote accesses charged", mon.RemoteAccesses)
	}
	if tx := m.Fabric().Stats().Transactions; tx != 0 {
		t.Errorf("%d fabric transactions completed, want 0", tx)
	}
}

// Engine.Shutdown unwinds a processor parked in a spin's wait for the
// flag's sub-page to change without running the wait's step: the flag
// is never reread and the spin never returns.
func TestShutdownUnwindsParkedSpin(t *testing.T) {
	m := New(KSR1(2))
	flag := m.AllocPadded("flag", 1).PaddedSlot(0)
	m.Engine().SetDeadline(100 * sim.Microsecond)
	charged := false
	m.prof.Charge = func(cell int, ph prof.Phase, _ sim.Time) {
		if cell == 0 && ph == prof.PhaseOther {
			charged = true
		}
	}
	unwound, returned := false, false
	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 1 {
			p.Compute(4000) // 200 us: the run ends at the deadline, not in a deadlock
			return
		}
		defer func() { unwound = true }()
		p.SpinUntilAtLeast(flag, 1)
		returned = true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("cond subpage %d", uint64(flag.SubPage()))
	if b := m.Engine().BlockedProcs(); len(b) != 1 || b[0].Name != "cell0" || b[0].Reason != want {
		t.Fatalf("blocked at the deadline: %v, want cell0 on %q", b, want)
	}
	m.Close()
	if !unwound {
		t.Error("Shutdown did not unwind the spinning processor's program")
	}
	if returned {
		t.Error("the spin returned")
	}
	if charged {
		t.Error("Shutdown ran the wait's step: its wait was charged")
	}
	if a := m.CellAt(0).Monitor().Accesses; a != 1 {
		t.Errorf("cell 0 made %d accesses, want 1 (no reread)", a)
	}
}

// A sub-cache hit, a remote read fill and a write fill that invalidates
// another cell's copy allocate nothing once each processor has made its
// first access. Cell 0 writes a shared word at the start of every
// period, cell 1 reads it mid-period: each read refetches the sub-page
// and each write invalidates the reader's copy.
func TestAccessAllocs(t *testing.T) {
	m := New(KSR1(2))
	word := m.AllocWords("shared", 1).At(0)
	own := m.AllocWords("own", 1).At(0)
	const period = 200 * sim.Microsecond
	const runs = 20
	// waitUntil computes until simulated time at.
	waitUntil := func(p *Proc, at sim.Time) {
		if d := at - p.Now(); d > 0 {
			p.Compute(int64(d / m.cfg.CPUCycle))
		}
	}
	var hit, read, write float64
	_, err := m.Run(2, func(p *Proc) {
		k := sim.Time(0)
		if p.CellID() == 0 {
			p.Read(own)
			hit = testing.AllocsPerRun(runs, func() { p.Read(own) })
			// Cell 1 measures its reads while these writes run (runs
			// calls plus AllocsPerRun's warm-up), then keeps reading
			// while the writes are measured.
			for ; k < runs+1; k++ {
				waitUntil(p, k*period)
				p.Write(word)
			}
			write = testing.AllocsPerRun(runs, func() {
				waitUntil(p, k*period)
				p.Write(word)
				k++
			})
			return
		}
		read = testing.AllocsPerRun(runs, func() {
			waitUntil(p, k*period+period/2)
			p.Read(word)
			k++
		})
		for ; k < 2*(runs+1); k++ {
			waitUntil(p, k*period+period/2)
			p.Read(word)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit != 0 {
		t.Errorf("sub-cache hit: %v allocs, want 0", hit)
	}
	if read != 0 {
		t.Errorf("remote read fill: %v allocs, want 0", read)
	}
	if write != 0 {
		t.Errorf("write fill that invalidates: %v allocs, want 0", write)
	}
	mon := m.CellAt(1).Monitor()
	if mon.RemoteAccesses < 2*runs {
		t.Errorf("cell 1 made %d remote accesses, want a fill per read", mon.RemoteAccesses)
	}
	if inv := m.Directory().Stats().Invalidations; inv < 2*runs {
		t.Errorf("%d invalidations, want one per write", inv)
	}
}

// Contended acquisitions, failed get_sub_page attempts and their
// retries included, allocate nothing once each processor has made its
// first.
func TestGetSubPageRetryAllocs(t *testing.T) {
	m := New(KSR1(4))
	lock := m.AllocPadded("lock", 1).PaddedSlot(0)
	var cycle float64
	measuring := true
	_, err := m.Run(4, func(p *Proc) {
		switch p.CellID() {
		case 0:
			// Hold the sub-page while the others retry, then contend
			// with them.
			p.AcquireSubPage(lock)
			p.Compute(40_000)
			p.ReleaseSubPage(lock)
			cycle = testing.AllocsPerRun(20, func() {
				p.AcquireSubPage(lock)
				p.Compute(10)
				p.ReleaseSubPage(lock)
				p.Compute(10) // let the waiters' retries go first
			})
			measuring = false
		default:
			for measuring {
				p.AcquireSubPage(lock)
				p.Compute(10)
				p.ReleaseSubPage(lock)
				p.Compute(10)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cycle != 0 {
		t.Errorf("contended acquire/release: %v allocs, want 0", cycle)
	}
	if m.CellAt(0).Monitor().GSPRetries == 0 {
		t.Error("cell 0's acquisitions were never contended")
	}
}

// A one-word spin that waits for one change and a four-word spin
// allocate nothing once the processor has made its first spin of each
// width. Cell 0 raises the flag words to k at the start of period k;
// cell 1 spins for k from mid-period k-1, so every spin finds the words
// below k, waits for the sub-page to change and rereads.
func TestSpinAllocs(t *testing.T) {
	m := New(KSR1(2))
	flag := m.AllocPadded("flag", 1).PaddedSlot(0)
	const period = 200 * sim.Microsecond
	const runs = 20
	// Each measurement makes runs spins plus AllocsPerRun's warm-up.
	const raises = 2 * (runs + 1)
	waitUntil := func(p *Proc, at sim.Time) {
		if d := at - p.Now(); d > 0 {
			p.Compute(int64(d / m.cfg.CPUCycle))
		}
	}
	var one, four float64
	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 0 {
			for k := uint64(1); k <= raises; k++ {
				waitUntil(p, sim.Time(k)*period)
				width := int64(1)
				if k > runs+1 {
					width = 4
				}
				for w := int64(0); w < width; w++ {
					p.WriteWord(flag+memory.Addr(w*memory.WordSize), k)
				}
			}
			return
		}
		k := uint64(0)
		one = testing.AllocsPerRun(runs, func() {
			k++
			waitUntil(p, sim.Time(k)*period-period/2)
			if v := p.SpinUntilAtLeast(flag, k); v != k {
				t.Errorf("one-word spin for %d returned %d", k, v)
			}
		})
		four = testing.AllocsPerRun(runs, func() {
			k++
			waitUntil(p, sim.Time(k)*period-period/2)
			p.SpinUntilAllAtLeast(flag, 4, k)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if one != 0 {
		t.Errorf("one-word spin: %v allocs, want 0", one)
	}
	if four != 0 {
		t.Errorf("four-word spin: %v allocs, want 0", four)
	}
	if inv := m.Directory().Stats().Invalidations; inv < raises {
		t.Errorf("%d invalidations, want at least one per raise", inv)
	}
}

// BenchmarkGetSubPageContended measures one AcquireSubPage /
// ReleaseSubPage pair by one of 32 processors contending for a hardware
// lock sub-page on a KSR-1: failed get_sub_page transits, waits for the
// release, and the winning attempt.
func BenchmarkGetSubPageContended(b *testing.B) {
	const procs = 32
	m := New(KSR1(procs))
	lock := m.AllocPadded("lock", 1).PaddedSlot(0)
	cycle := func(p *Proc) {
		p.AcquireSubPage(lock)
		p.Compute(10)
		p.ReleaseSubPage(lock)
		p.Compute(10) // let the waiters' retries go first
	}
	// Warm up: every cell's caches and directory entry exist before the
	// timer starts.
	if _, err := m.Run(procs, cycle); err != nil {
		b.Fatal(err)
	}
	handoffs := m.Engine().Handoffs()
	b.ReportAllocs()
	b.ResetTimer()
	_, err := m.Run(procs, func(p *Proc) {
		n := b.N / procs
		if p.CellID() < b.N%procs {
			n++
		}
		for k := 0; k < n; k++ {
			cycle(p)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.Engine().Handoffs()-handoffs)/float64(b.N), "handoffs/op")
}
