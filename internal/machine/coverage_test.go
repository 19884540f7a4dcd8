package machine

import (
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/sim"
)

func TestAccessorsAndConfigHelpers(t *testing.T) {
	cfg := KSR1(8).WithSeed(99)
	if cfg.Seed != 99 {
		t.Error("WithSeed ignored")
	}
	m := New(cfg)
	if m.cfg.Seed != 99 || m.Cells() != 8 {
		t.Error("seed or Cells accessor wrong")
	}
	if m.Engine() == nil || m.Fabric() == nil || m.Space() == nil {
		t.Error("nil accessors")
	}
	if m.Now() != 0 {
		t.Error("fresh machine not at time zero")
	}
	if m.CellAt(3).id != 3 {
		t.Error("CellAt(3) is not cell 3")
	}
	_, err := m.Run(4, func(p *Proc) {
		if p.Process() == nil {
			t.Error("Process() nil")
		}
		if p.Machine() != m {
			t.Error("Machine() wrong")
		}
		p.Compute(0)  // no-op path
		p.Compute(-5) // negative guard
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteRangeTakesOwnershipPerSubPage(t *testing.T) {
	m := New(KSR1(4))
	r := m.Alloc("data", 16*1024)
	_, err := m.Run(1, func(p *Proc) {
		p.WriteRange(r.Base, 512, memory.WordSize) // 4 KB = 32 sub-pages
		p.WriteRange(r.Base, 0, 8)                 // count<=0 no-op
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := m.CellAt(0).Monitor()
	if mon.RemoteAccesses != 32 {
		t.Errorf("write sweep made %d remote accesses, want 32 (one per sub-page)", mon.RemoteAccesses)
	}
	if got := m.Directory().StateOf(r.Base.SubPage()); got.String() != "exclusive" {
		t.Errorf("written sub-page state = %v, want exclusive", got)
	}
}

func TestSpinUntilAllAtLeastCrossBoundaryPanics(t *testing.T) {
	m := New(KSR1(2))
	r := m.Alloc("x", 1024)
	_, err := m.Run(1, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("cross-sub-page SpinUntilAllAtLeast did not panic")
			}
		}()
		p.SpinUntilAllAtLeast(r.At(120), 4, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A word count below one is rejected in the caller's goroutine before
// any access, whether or not addr is sub-page aligned: the range check
// alone would look at the word before addr.
func TestSpinUntilAllAtLeastRejectsNoWords(t *testing.T) {
	for _, off := range []memory.Addr{0, memory.WordSize} {
		for _, n := range []int{0, -1} {
			m := New(KSR1(2))
			addr := m.AllocPadded("x", 1).PaddedSlot(0) + off
			_, err := m.Run(1, func(p *Proc) {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "at least one word") {
						t.Errorf("offset %d, %d words: panic %q, want the word-count message", off, n, msg)
					}
				}()
				p.SpinUntilAllAtLeast(addr, n, 1)
			})
			if err != nil {
				t.Fatal(err)
			}
			if a := m.CellAt(0).Monitor().Accesses; a != 0 {
				t.Errorf("offset %d, %d words: %d accesses before the panic, want 0", off, n, a)
			}
		}
	}
}

// Words already at the threshold end the spin after one read of each:
// the run takes exactly as long as a plain read of the two words.
func TestSpinUntilAllAtLeastImmediateSatisfaction(t *testing.T) {
	run := func(body func(p *Proc, addr memory.Addr)) sim.Time {
		m := New(KSR1(2))
		r := m.AllocPadded("x", 1)
		m.Space().WriteWord(r.PaddedSlot(0), 3)
		m.Space().WriteWord(r.PaddedSlot(0)+8, 4)
		el, err := m.Run(1, func(p *Proc) { body(p, r.PaddedSlot(0)) })
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	spin := run(func(p *Proc, addr memory.Addr) { p.SpinUntilAllAtLeast(addr, 2, 3) })
	read := run(func(p *Proc, addr memory.Addr) { p.ReadRange(addr, 2, memory.WordSize) })
	if spin != read {
		t.Errorf("satisfied spin took %v, a plain 2-word read %v", spin, read)
	}
}

func TestCapacityEvictionsRoundTrip(t *testing.T) {
	// Stream 1.5x the 32 MB local cache at page grain: evictions must
	// occur, the directory must drop the victims, and re-reading evicted
	// data must still return correct values.
	m := New(KSR1(2))
	const pages = 3 * 1024 // 48 MB at 16 KB pages
	r := m.Alloc("big", pages*memory.PageSize)
	m.Space().WriteWord(r.Word(0), 42)
	_, err := m.Run(1, func(p *Proc) {
		p.ReadRange(r.Base, pages, memory.PageSize)
		if got := p.ReadWord(r.Word(0)); got != 42 {
			t.Errorf("re-read after eviction = %d, want 42", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Directory().Stats().Drops == 0 {
		t.Error("no directory drops despite streaming past capacity")
	}
	if m.CellAt(0).LocalCache().Stats().Evictions == 0 {
		t.Error("no local-cache evictions")
	}
}

func TestPerCellOnRingStillDistinct(t *testing.T) {
	m := New(KSR1(8))
	pc := m.AllocPerCell("x")
	seen := map[memory.SubPageID]bool{}
	for c := 0; c < 8; c++ {
		sp := pc.Addr(c).SubPage()
		if seen[sp] {
			t.Fatal("PerCell slots share a sub-page")
		}
		seen[sp] = true
	}
}

func TestPoststoreAndPrefetchNoOpsOnButterfly(t *testing.T) {
	m := New(Butterfly(4))
	pc := m.AllocPerCell("x")
	_, err := m.Run(1, func(p *Proc) {
		p.Poststore(pc.Addr(0))          // must be a silent no-op
		p.Prefetch(pc.Addr(1))           // ditto
		p.PrefetchRange(pc.Addr(2), 256) // ditto
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.CellAt(0).Monitor().Poststores != 0 || m.CellAt(0).Monitor().Prefetches != 0 {
		t.Error("non-coherent machine recorded poststore/prefetch")
	}
}

func TestRunElapsedMeasuresProgram(t *testing.T) {
	m := New(KSR1(2))
	el, err := m.Run(2, func(p *Proc) {
		p.Compute(int64(1000 * (p.CellID() + 1)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if el != sim.Time(2000*50) {
		t.Errorf("elapsed = %v, want 100us (slowest proc)", el)
	}
}

func TestButterflyRangeAccesses(t *testing.T) {
	m := New(Butterfly(4))
	r := m.Alloc("data", 8*1024)
	_, err := m.Run(2, func(p *Proc) {
		p.ReadRange(r.Base, 64, memory.SubPageSize)
		p.WriteRange(r.Base, 64, memory.SubPageSize)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalMonitor().RemoteAccesses == 0 {
		t.Error("butterfly ranges produced no remote traffic")
	}
}

func TestSubCacheBypassRemotePath(t *testing.T) {
	// Bypass must also skip the sub-cache fill on remote fetches.
	m := New(KSR1(2))
	r := m.Alloc("data", 16*1024)
	_, err := m.Run(1, func(p *Proc) {
		p.SetSubCacheBypass(true)
		p.ReadRange(r.Base, 64, memory.SubPageSize) // cold: remote fetches
		p.SetSubCacheBypass(false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CellAt(0).SubCache().Stats().Accesses; got != 0 {
		t.Errorf("sub-cache touched %d times on bypassed remote path", got)
	}
}

func TestDeterminismUnderRandomPrograms(t *testing.T) {
	// Random little shared-memory programs, run twice: elapsed time and
	// every monitor counter must match exactly.
	for seed := uint64(1); seed <= 5; seed++ {
		run := func() (sim.Time, Monitor) {
			m := New(KSR1(8).WithSeed(seed))
			shared := m.AllocPadded("s", 8)
			big := m.Alloc("big", 256*1024)
			el, err := m.Run(8, func(p *Proc) {
				rng := sim.NewRNG(seed*100 + uint64(p.CellID()))
				for i := 0; i < 30; i++ {
					switch rng.Intn(5) {
					case 0:
						p.ReadWord(shared.PaddedSlot(int64(rng.Intn(8))))
					case 1:
						p.WriteWord(shared.PaddedSlot(int64(rng.Intn(8))), uint64(i))
					case 2:
						p.FetchAdd(shared.PaddedSlot(0), 1)
					case 3:
						p.ReadRange(big.At(int64(rng.Intn(200))*1024), 32, 64)
					case 4:
						p.Compute(int64(rng.Intn(2000)))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return el, m.TotalMonitor()
		}
		el1, mon1 := run()
		el2, mon2 := run()
		if el1 != el2 || mon1 != mon2 {
			t.Fatalf("seed %d: runs diverged: %v/%v vs %v/%v", seed, el1, mon1, el2, mon2)
		}
	}
}

func TestKSR2ClockRatio(t *testing.T) {
	// On the KSR-2 the node-side latencies halve (25 ns cycles) while the
	// ring transit stays put — the single ratio behind every KSR-1 vs
	// KSR-2 difference in the paper.
	measure := func(cfg Config) (local, remote sim.Time) {
		m := New(cfg)
		r := m.Alloc("d", 1024)
		other := m.Alloc("o", 1024)
		m.Space().WriteWord(other.Word(0), 1)
		_, err := m.Run(2, func(p *Proc) {
			if p.CellID() == 1 {
				p.Read(other.Word(0))
				return
			}
			p.Compute(1000) // let cell 1 cache its word
			p.Read(r.Word(0))
			t0 := p.Now()
			p.Read(r.Word(0)) // sub-cache hit
			local = p.Now() - t0
			t0 = p.Now()
			p.Read(other.Word(0)) // remote
			remote = p.Now() - t0
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	l1, r1 := measure(KSR1(4))
	l2, r2 := measure(KSR2(4))
	if l2*2 != l1 {
		t.Errorf("KSR-2 sub-cache hit %v, want half of KSR-1's %v", l2, l1)
	}
	// The node-side tail (fill + page allocation cycles) halves, but the
	// 8.75us ring transit is identical on both machines.
	if r2 >= r1 {
		t.Errorf("remote: KSR-2 %v not below KSR-1 %v", r2, r1)
	}
	if r2 <= 8750 {
		t.Errorf("remote on KSR-2 = %v — the fixed ring transit must persist", r2)
	}
	nodeTail1, nodeTail2 := r1-8750, r2-8750
	if nodeTail2*2 != nodeTail1 {
		t.Errorf("node-side tail: KSR-1 %v vs KSR-2 %v, want exactly half", nodeTail1, nodeTail2)
	}
}
