package machine

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/prof"
	"repro/internal/sim"
)

func TestConfigFactories(t *testing.T) {
	k1, k2 := KSR1(32), KSR2(64)
	if k1.CPUCycle != 50 || k2.CPUCycle != 25 {
		t.Error("CPU cycle times wrong")
	}
	if k1.Ring.SlotHold+k1.Ring.Overhead != 175*k1.CPUCycle {
		t.Error("KSR-1 ring latency is not 175 cycles")
	}
	if k2.Ring != KSR1(64).Ring {
		t.Error("KSR-2 must have an identical ring to KSR-1")
	}
	if !Symmetry(8).Coherent {
		t.Error("Symmetry model must have coherent caches")
	}
	if Butterfly(8).Coherent {
		t.Error("Butterfly model must not have coherent caches")
	}
}

func TestWithCellsResizesFabric(t *testing.T) {
	c := KSR1(32).WithCells(16)
	if c.Cells != 16 || c.Ring.Cells != 16 {
		t.Errorf("WithCells: Cells=%d Ring.Cells=%d", c.Cells, c.Ring.Cells)
	}
}

// runProgram builds a KSR-1 and runs body on n procs.
func runProgram(t *testing.T, n int, body func(p *Proc)) (*Machine, sim.Time) {
	t.Helper()
	m := New(KSR1(32))
	el, err := m.Run(n, body)
	if err != nil {
		t.Fatal(err)
	}
	return m, el
}

func TestColdReadThenCachedRead(t *testing.T) {
	var first, second, third sim.Time
	runProgram(t, 1, func(p *Proc) {
		r := p.Machine().Alloc("data", 1024)
		t0 := p.Now()
		p.Read(r.Word(0))
		first = p.Now() - t0

		t0 = p.Now()
		p.Read(r.Word(0))
		second = p.Now() - t0

		t0 = p.Now()
		p.Read(r.Word(1)) // same sub-block
		third = p.Now() - t0
	})
	// Cold: ring (8750) + local fill (18 cy) + page alloc (105 cy) = a few us.
	if first < 8750 {
		t.Errorf("cold read = %v, want >= ring latency", first)
	}
	// Cached: exactly the 2-cycle published sub-cache latency.
	if second != 2*50 {
		t.Errorf("sub-cache read = %v, want 100ns (2 cycles)", second)
	}
	if third != 2*50 {
		t.Errorf("same-sub-block read = %v, want 100ns", third)
	}
}

func TestWritesCostMoreThanReads(t *testing.T) {
	var rd, wr sim.Time
	runProgram(t, 1, func(p *Proc) {
		r := p.Machine().Alloc("data", 1024)
		p.Read(r.Word(0)) // warm
		t0 := p.Now()
		p.Read(r.Word(0))
		rd = p.Now() - t0
		p.Write(r.Word(0)) // take ownership
		t0 = p.Now()
		p.Write(r.Word(0))
		wr = p.Now() - t0
	})
	if wr <= rd {
		t.Errorf("cached write (%v) not more expensive than read (%v)", wr, rd)
	}
}

func TestLocalCacheLatencyAfterSubCacheEviction(t *testing.T) {
	// Fill the sub-cache with array B, then read array A (already in the
	// local cache): accesses should cost local-cache latency (18 cycles),
	// not ring latency. This is the paper's local-cache measurement method.
	const mb = 1024 * 1024
	var aTime sim.Time
	var m *Machine
	m, _ = runProgram(t, 1, func(p *Proc) {
		a := p.Machine().Alloc("A", mb)
		b := p.Machine().Alloc("B", mb)
		p.ReadRange(a.Base, mb/8, 8) // A into local cache
		for i := 0; i < 3; i++ {
			p.ReadRange(b.Base, mb/8, 8) // B floods the sub-cache
		}
		p.Machine().ResetMonitors()
		t0 := p.Now()
		p.ReadRange(a.Base, mb/64, 64) // one read per sub-block of A
		aTime = p.Now() - t0
	})
	mon := m.CellAt(0).Monitor()
	if mon.RemoteAccesses != 0 {
		t.Errorf("local-cache sweep went remote %d times", mon.RemoteAccesses)
	}
	perAccess := aTime / sim.Time(mb/64)
	// 18 cycles = 900ns, plus occasional sub-cache block allocation.
	if perAccess < 900 || perAccess > 1600 {
		t.Errorf("per-access local-cache latency = %v, want ~900-1600ns", perAccess)
	}
}

func TestRemoteAccessBetweenCells(t *testing.T) {
	// Cell 0 owns data; cell 1 reads it: one ring transaction.
	m := New(KSR1(32))
	r := m.Alloc("shared", 1024)
	done := make(chan struct{}, 1)
	_ = done
	var remoteLat sim.Time
	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 0 {
			p.WriteWord(r.Word(0), 42)
		} else {
			p.Compute(1000) // let cell 0 write first
			t0 := p.Now()
			if v := p.ReadWord(r.Word(0)); v != 42 {
				t.Errorf("remote read value = %d, want 42", v)
			}
			remoteLat = p.Now() - t0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if remoteLat < 8750 {
		t.Errorf("remote read = %v, want >= 8750ns", remoteLat)
	}
	if m.CellAt(1).Monitor().RemoteAccesses == 0 {
		t.Error("no remote access recorded for cell 1")
	}
}

func TestFetchAddAtomicAcrossProcs(t *testing.T) {
	m := New(KSR1(32))
	ctr := m.AllocWords("counter", 1)
	const procs, per = 8, 25
	_, err := m.Run(procs, func(p *Proc) {
		for i := 0; i < per; i++ {
			p.FetchAdd(ctr.Word(0), 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Space().ReadWord(ctr.Word(0)); got != procs*per {
		t.Errorf("counter = %d, want %d", got, procs*per)
	}
}

func TestGetSubPageContention(t *testing.T) {
	m := New(KSR1(32))
	lock := m.AllocPadded("lock", 1)
	addr := lock.PaddedSlot(0)
	inCrit := 0
	maxIn := 0
	_, err := m.Run(4, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.AcquireSubPage(addr)
			inCrit++
			if inCrit > maxIn {
				maxIn = inCrit
			}
			p.Compute(500)
			inCrit--
			p.ReleaseSubPage(addr)
			p.Compute(100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxIn != 1 {
		t.Errorf("mutual exclusion violated: %d procs in critical section", maxIn)
	}
	if m.Directory().Stats().GSPFailures == 0 {
		t.Error("expected contended gsp failures")
	}
}

func TestSpinUntilAtLeastWakesOnWrite(t *testing.T) {
	m := New(KSR1(32))
	flag := m.AllocPadded("flag", 1)
	var sawAt, wroteAt sim.Time
	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 0 {
			p.Compute(100000)
			wroteAt = p.Now()
			p.WriteWord(flag.PaddedSlot(0), 1)
		} else {
			p.SpinUntilAtLeast(flag.PaddedSlot(0), 1)
			sawAt = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawAt < wroteAt {
		t.Errorf("spinner saw flag at %v before write at %v", sawAt, wroteAt)
	}
	if sawAt > wroteAt+100000 {
		t.Errorf("spinner woke %v after write — wakeup not event-driven", sawAt-wroteAt)
	}
}

// A spin charges the profiler for every nanosecond it takes: its reads'
// memory cycles and fabric latencies as memory, and as other its waits
// for the flag's sub-page to change — nearly all of a 100 us spin on
// the ring — or, on the butterfly, its poll gaps, 1 us after every 2 us
// probe.
func TestSpinChargesItsWholeWait(t *testing.T) {
	for _, tc := range []struct {
		cfg      Config
		minOther sim.Time
	}{
		{KSR1(2), 90 * sim.Microsecond},
		{Butterfly(2), 30 * sim.Microsecond},
	} {
		m := New(tc.cfg)
		flag := m.AllocPerCell("flag").Addr(0)
		var charged, other sim.Time
		m.prof = prof.Hooks{
			Charge: func(cell int, ph prof.Phase, d sim.Time) {
				if cell == 1 {
					charged += d
					if ph == prof.PhaseOther {
						other += d
					}
				}
			},
			Access: func(cell int, _ prof.Phase, lat sim.Time) {
				if cell == 1 {
					charged += lat
				}
			},
		}
		var spun sim.Time
		_, err := m.Run(2, func(p *Proc) {
			if p.CellID() == 0 {
				p.Compute(2000) // 100 us
				p.WriteWord(flag, 1)
				return
			}
			p.SpinUntilAtLeast(flag, 1)
			spun = p.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		if charged != spun {
			t.Errorf("%s: spin took %v, charged %v", tc.cfg.Name, spun, charged)
		}
		if other < tc.minOther {
			t.Errorf("%s: %v of the spin charged as other, want at least %v", tc.cfg.Name, other, tc.minOther)
		}
	}
}

func TestSpinningGeneratesNoRingTraffic(t *testing.T) {
	// A spinner with a valid cached copy must not touch the ring while
	// waiting (hardware spins in the sub-cache).
	m := New(KSR1(32))
	flag := m.AllocPadded("flag", 1)
	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 0 {
			p.Compute(1000000)
			p.WriteWord(flag.PaddedSlot(0), 1)
		} else {
			p.ReadWord(flag.PaddedSlot(0)) // prime the cache
			p.Machine().ResetMonitors()
			p.SpinUntilAtLeast(flag.PaddedSlot(0), 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := m.CellAt(1).Monitor()
	// One refetch after the invalidation is expected; dozens would mean
	// busy polling.
	if mon.RemoteAccesses > 2 {
		t.Errorf("spinner made %d remote accesses, want <= 2", mon.RemoteAccesses)
	}
}

func TestPoststoreDeliversWithoutReaderRefetch(t *testing.T) {
	m := New(KSR1(32))
	flag := m.AllocPadded("flag", 1)
	addr := flag.PaddedSlot(0)
	var lateRead sim.Time
	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 0 {
			p.Compute(1000)
			p.WriteWord(addr, 7) // invalidates the primed reader
			p.Poststore(addr)    // ...and refills it asynchronously
		} else {
			p.ReadWord(addr) // prime: reader becomes a place-holder on invalidate
			p.Compute(10000) // long enough for the poststore to land
			t0 := p.Now()
			if v := p.ReadWord(addr); v != 7 {
				t.Errorf("read %d after poststore, want 7", v)
			}
			lateRead = p.Now() - t0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Directory().Stats().PoststoreFill != 1 {
		t.Errorf("PoststoreFill = %d, want 1", m.Directory().Stats().PoststoreFill)
	}
	if lateRead >= 8750 {
		t.Errorf("read after poststore fill = %v, want a cache hit", lateRead)
	}
}

func TestPrefetchOverlapsComputation(t *testing.T) {
	// Prefetch then compute longer than the ring latency: the subsequent
	// read must be a local hit.
	m := New(KSR1(32))
	r := m.Alloc("data", 1024)
	var readLat sim.Time
	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 0 {
			p.WriteWord(r.Word(0), 5)
		} else {
			p.Compute(1000)
			p.Prefetch(r.Word(0))
			p.Compute(1000) // 50 us >> 8.75 us ring latency
			t0 := p.Now()
			p.Read(r.Word(0))
			readLat = p.Now() - t0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if readLat >= 8750 {
		t.Errorf("read after prefetch = %v, want a cache hit", readLat)
	}
}

func TestRangeBatchingMatchesElementCount(t *testing.T) {
	m := New(KSR1(32))
	r := m.Alloc("data", 64*1024)
	_, err := m.Run(1, func(p *Proc) {
		p.ReadRange(r.Base, 1000, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CellAt(0).Monitor().Accesses; got != 1000 {
		t.Errorf("monitor accesses = %d, want 1000", got)
	}
	// 1000 words * 8 B = 8000 B = 63 sub-pages -> 63 remote fetches.
	if got := m.CellAt(0).Monitor().RemoteAccesses; got != 63 {
		t.Errorf("remote accesses = %d, want 63 (one per sub-page)", got)
	}
}

func TestTimerInterruptsWhenEnabled(t *testing.T) {
	cfg := KSR1(4)
	cfg.TimerInterrupts = true
	m := New(cfg)
	_, err := m.Run(1, func(p *Proc) {
		p.Compute(2_000_000) // 100 ms: should take ~10 interrupts
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CellAt(0).Monitor().Interrupts; got < 5 || got > 20 {
		t.Errorf("interrupts over 100ms = %d, want ~10", got)
	}
}

func TestNoTimerInterruptsByDefault(t *testing.T) {
	m, _ := runProgram(t, 1, func(p *Proc) { p.Compute(2_000_000) })
	if got := m.CellAt(0).Monitor().Interrupts; got != 0 {
		t.Errorf("interrupts = %d with model disabled", got)
	}
}

func TestButterflyLocalVsRemote(t *testing.T) {
	m := New(Butterfly(8))
	pc := m.AllocPerCell("slots")
	var localLat, remoteLat sim.Time
	_, err := m.Run(1, func(p *Proc) {
		t0 := p.Now()
		p.Read(pc.Addr(0)) // home-local
		localLat = p.Now() - t0
		t0 = p.Now()
		p.Read(pc.Addr(5)) // remote module
		remoteLat = p.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if localLat >= remoteLat {
		t.Errorf("local %v not cheaper than remote %v on butterfly", localLat, remoteLat)
	}
}

func TestAllocPerCellHomesCorrect(t *testing.T) {
	m := New(Butterfly(16))
	pc := m.AllocPerCell("slots")
	seen := map[memory.Addr]bool{}
	for c := 0; c < 16; c++ {
		a := pc.Addr(c)
		if m.homeOf(a) != c {
			t.Errorf("slot for cell %d homes to module %d", c, m.homeOf(a))
		}
		if seen[a] {
			t.Errorf("duplicate slot address for cell %d", c)
		}
		seen[a] = true
	}
}

func TestButterflyFetchAddAtomic(t *testing.T) {
	m := New(Butterfly(8))
	ctr := m.AllocWords("counter", 1)
	_, err := m.Run(8, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.FetchAdd(ctr.Word(0), 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Space().ReadWord(ctr.Word(0)); got != 80 {
		t.Errorf("counter = %d, want 80", got)
	}
}

func TestButterflySpinPolls(t *testing.T) {
	// Without coherent caches the spinner must poll across the network.
	m := New(Butterfly(4))
	flag := m.AllocPerCell("flag")
	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 0 {
			p.Compute(2000)
			p.WriteWord(flag.Addr(0), 1)
		} else {
			p.SpinUntilAtLeast(flag.Addr(0), 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.CellAt(1).Monitor().RemoteAccesses < 2 {
		t.Error("butterfly spinner did not poll remotely")
	}
}

func TestRunValidatesProcCount(t *testing.T) {
	m := New(KSR1(4))
	if _, err := m.Run(5, func(p *Proc) {}); err == nil {
		t.Error("Run with more procs than cells did not error")
	}
	if _, err := m.Run(0, func(p *Proc) {}); err == nil {
		t.Error("Run with zero procs did not error")
	}
}

func TestGSPOnButterflyPanics(t *testing.T) {
	m := New(Butterfly(4))
	_, err := m.Run(1, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("GetSubPage on non-coherent machine did not panic")
			}
		}()
		p.GetSubPage(0x4000)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		m := New(KSR1(16))
		ctr := m.AllocWords("c", 1)
		el, err := m.Run(16, func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.FetchAdd(ctr.Word(0), 1)
				p.Compute(int64(100 * (p.CellID() + 1)))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs took %v and %v", a, b)
	}
}

func TestMonitorAggregation(t *testing.T) {
	m, _ := runProgram(t, 4, func(p *Proc) {
		r := p.Machine().Space().Regions()
		_ = r
		p.Compute(10)
	})
	var manual Monitor
	for i := 0; i < 32; i++ {
		manual.Add(m.CellAt(i).Monitor())
	}
	if manual != m.TotalMonitor() {
		t.Error("TotalMonitor disagrees with manual sum")
	}
}
