package machine

import (
	"testing"

	"repro/internal/sim"
)

func TestSubCacheBypassSkipsSubCache(t *testing.T) {
	m := New(KSR1(2))
	r := m.Alloc("data", 64*1024)
	_, err := m.Run(1, func(p *Proc) {
		p.SetSubCacheBypass(true)
		p.ReadRange(r.Base, 1000, 8)
		p.SetSubCacheBypass(false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CellAt(0).SubCache().Stats().Accesses; got != 0 {
		t.Errorf("sub-cache saw %d accesses with bypass on, want 0", got)
	}
	if m.CellAt(0).LocalCache().Stats().Accesses == 0 {
		t.Error("local cache saw no traffic")
	}
}

func TestSubCacheBypassCostsLocalCacheLatency(t *testing.T) {
	m := New(KSR1(2))
	r := m.Alloc("data", 1024)
	var bypassed, cached sim.Time
	_, err := m.Run(1, func(p *Proc) {
		p.Read(r.Word(0)) // warm (remote once)
		p.SetSubCacheBypass(true)
		t0 := p.Now()
		p.Read(r.Word(0))
		bypassed = p.Now() - t0
		p.SetSubCacheBypass(false)
		p.Read(r.Word(0)) // refill sub-cache
		t0 = p.Now()
		p.Read(r.Word(0))
		cached = p.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if bypassed != 18*50 {
		t.Errorf("bypassed read = %v, want 900ns (18 cycles)", bypassed)
	}
	if cached != 2*50 {
		t.Errorf("cached read = %v, want 100ns (2 cycles)", cached)
	}
}

func TestSubCacheBypassPreservesValues(t *testing.T) {
	m := New(KSR1(2))
	r := m.AllocWords("v", 4)
	_, err := m.Run(1, func(p *Proc) {
		p.SetSubCacheBypass(true)
		p.WriteWord(r.Word(1), 77)
		if got := p.ReadWord(r.Word(1)); got != 77 {
			t.Errorf("bypassed read returned %d, want 77", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchSubFillsSubCache(t *testing.T) {
	m := New(KSR1(2))
	r := m.Alloc("data", 64*1024)
	var after sim.Time
	_, err := m.Run(1, func(p *Proc) {
		// Bring the sub-page into the local cache, then purge the
		// sub-cache copy by flooding.
		p.Read(r.Word(0))
		flood := p.Machine().Alloc("flood", 512*1024)
		for rep := 0; rep < 3; rep++ {
			p.ReadRange(flood.Base, 512*1024/64, 64)
		}
		// Prefetch local-cache -> sub-cache, give it time, then read.
		p.PrefetchSub(r.Word(0))
		p.Compute(100)
		t0 := p.Now()
		p.Read(r.Word(0))
		after = p.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 2*50 {
		t.Errorf("read after PrefetchSub = %v, want 100ns (sub-cache hit)", after)
	}
}

func TestPrefetchSubNoOpWithoutValidCopy(t *testing.T) {
	m := New(KSR1(2))
	r := m.Alloc("data", 1024)
	_, err := m.Run(1, func(p *Proc) {
		p.PrefetchSub(r.Word(0)) // nothing in the local cache yet
		p.Compute(100)
		t0 := p.Now()
		p.Read(r.Word(0))
		if lat := p.Now() - t0; lat < 8750 {
			t.Errorf("read was %v — PrefetchSub must not fetch remotely", lat)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDisableSnarfingMultipliesFetches(t *testing.T) {
	run := func(disable bool) uint64 {
		cfg := KSR1(16)
		cfg.DisableSnarfing = disable
		m := New(cfg)
		flag := m.AllocPadded("flag", 1)
		_, err := m.Run(16, func(p *Proc) {
			if p.CellID() == 0 {
				p.Compute(100000)
				p.WriteWord(flag.PaddedSlot(0), 1)
			} else {
				p.SpinUntilAtLeast(flag.PaddedSlot(0), 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Directory().Stats().ReadFetches
	}
	with, without := run(false), run(true)
	if without <= with {
		t.Errorf("disabling snarfing did not raise fetches: %d vs %d", with, without)
	}
	if without < 10 {
		t.Errorf("15 spinners without snarfing issued only %d fetches", without)
	}
}

func TestBypassOnButterflyPanics(t *testing.T) {
	m := New(Butterfly(2))
	_, err := m.Run(1, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("SetSubCacheBypass on non-coherent machine did not panic")
			}
		}()
		p.SetSubCacheBypass(true)
	})
	if err != nil {
		t.Fatal(err)
	}
}
