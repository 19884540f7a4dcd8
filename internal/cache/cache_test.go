package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
	"repro/internal/sim"
)

func newSub() *Cache   { return New(SubCacheConfig(), sim.NewRNG(1)) }
func newLocal() *Cache { return New(LocalCacheConfig(), sim.NewRNG(1)) }

// lookup reports whether the transfer unit containing a is present,
// without changing any state.
func lookup(c *Cache, a memory.Addr) bool {
	unit := c.unitOf(a)
	f := c.find(unit)
	return f != nil && f.has(c.transferIdx(a, unit))
}

// resident returns how many transfer units are present in total.
func resident(c *Cache) int {
	n := 0
	for si := range c.sets {
		for fi := range c.sets[si] {
			if c.sets[si][fi].valid {
				n += c.sets[si][fi].nset
			}
		}
	}
	return n
}

func TestGeometry(t *testing.T) {
	if got := SubCacheConfig().Sets(); got != 64 {
		t.Errorf("sub-cache sets = %d, want 64 (256KB / (2-way * 2KB))", got)
	}
	if got := LocalCacheConfig().Sets(); got != 128 {
		t.Errorf("local-cache sets = %d, want 128 (32MB / (16-way * 16KB))", got)
	}
	if SubCacheConfig().unitsPerAlloc() != 32 {
		t.Error("sub-cache should hold 32 sub-blocks per 2KB block")
	}
	if LocalCacheConfig().unitsPerAlloc() != 128 {
		t.Error("local-cache should hold 128 sub-pages per 16KB page")
	}
}

func TestFirstAccessIsAllocMiss(t *testing.T) {
	c := newSub()
	out, ev := c.Touch(0)
	if out != AllocMiss || ev != nil {
		t.Errorf("first access: %v, ev=%v; want alloc-miss, no eviction", out, ev)
	}
}

func TestSameTransferUnitHits(t *testing.T) {
	c := newSub()
	c.Touch(0)
	out, _ := c.Touch(63) // same 64 B sub-block
	if out != Hit {
		t.Errorf("second access in sub-block: %v, want hit", out)
	}
}

func TestNextTransferUnitIsTransferMiss(t *testing.T) {
	c := newSub()
	c.Touch(0)
	out, _ := c.Touch(64) // next sub-block, same 2 KB block
	if out != TransferMiss {
		t.Errorf("next sub-block: %v, want transfer-miss", out)
	}
	out, _ = c.Touch(64)
	if out != Hit {
		t.Errorf("re-access: %v, want hit", out)
	}
}

func TestNewBlockIsAllocMiss(t *testing.T) {
	c := newSub()
	c.Touch(0)
	out, _ := c.Touch(memory.BlockSize) // new 2 KB block
	if out != AllocMiss {
		t.Errorf("new block: %v, want alloc-miss", out)
	}
}

func TestEvictionOnSetOverflow(t *testing.T) {
	// Sub-cache: 64 sets, 2-way. Three blocks mapping to set 0 force an
	// eviction of one of the first two.
	c := newSub()
	stride := memory.Addr(64 * memory.BlockSize) // same set each time
	c.Touch(0)
	c.Touch(stride)
	out, ev := c.Touch(2 * stride)
	if out != AllocMiss {
		t.Fatalf("third conflicting block: %v, want alloc-miss", out)
	}
	if ev == nil {
		t.Fatal("no eviction reported on full set")
	}
	if ev.Unit != 0 && ev.Unit != 64 {
		t.Errorf("evicted unit %d, want 0 or 64", ev.Unit)
	}
	if len(ev.Present) != 1 {
		t.Errorf("evicted unit had %d present transfer units, want 1", len(ev.Present))
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestEvictedTransferUnitAddresses(t *testing.T) {
	c := newSub()
	// Fill three sub-blocks of block 0, then evict it.
	c.Touch(0)
	c.Touch(64)
	c.Touch(128)
	stride := memory.Addr(64 * memory.BlockSize)
	c.Touch(stride)
	_, ev := c.Touch(2 * stride)
	if ev == nil {
		t.Fatal("no eviction")
	}
	var evicted *Evicted
	if ev.Unit == 0 {
		evicted = ev
	} else {
		// The RNG picked the other way; force another conflict to evict unit 0.
		_, ev2 := c.Touch(3 * stride)
		if ev2 == nil || ev2.Unit != 0 {
			t.Skip("random replacement did not pick block 0 in two tries")
		}
		evicted = ev2
	}
	if len(evicted.Present) != 3 {
		t.Fatalf("block 0 eviction reported %d present units, want 3", len(evicted.Present))
	}
	for i, u := range evicted.Present {
		want := memory.Addr(i * 64)
		if c.TransferUnitBase(u) != want {
			t.Errorf("evicted unit %d base = %#x, want %#x", i, uint64(c.TransferUnitBase(u)), uint64(want))
		}
	}
}

func TestPurgeTransferUnit(t *testing.T) {
	c := newSub()
	c.Touch(0)
	if !lookup(c, 0) {
		t.Fatal("lookup after touch failed")
	}
	c.PurgeTransferUnit(0)
	if lookup(c, 0) {
		t.Error("lookup after purge succeeded")
	}
	// Frame is still allocated: re-access is only a transfer miss.
	out, _ := c.Touch(0)
	if out != TransferMiss {
		t.Errorf("re-access after purge: %v, want transfer-miss (frame retained)", out)
	}
}

func TestPurgeRangeSpansUnits(t *testing.T) {
	c := newSub()
	c.Touch(0)
	c.Touch(64)
	c.Touch(128)
	c.PurgeRange(0, 128) // first two sub-blocks
	if lookup(c, 0) || lookup(c, 64) {
		t.Error("purged sub-blocks still present")
	}
	if !lookup(c, 128) {
		t.Error("sub-block outside purge range lost")
	}
}

func TestLocalCacheSubPageGrain(t *testing.T) {
	c := newLocal()
	c.Touch(0)
	if out, _ := c.Touch(127); out != Hit {
		t.Error("same sub-page should hit")
	}
	if out, _ := c.Touch(128); out != TransferMiss {
		t.Error("next sub-page should transfer-miss")
	}
	if out, _ := c.Touch(memory.PageSize); out != AllocMiss {
		t.Error("next page should alloc-miss")
	}
}

func TestCapacityEvictionsUnderWorkingSetPressure(t *testing.T) {
	// Stream 64 MB through the 32 MB local cache: evictions must occur and
	// residency must never exceed capacity.
	c := newLocal()
	total := int64(64 * 1024 * 1024)
	for a := int64(0); a < total; a += memory.SubPageSize {
		c.Touch(memory.Addr(a))
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions streaming 2x capacity")
	}
	maxResident := int(LocalCacheConfig().SizeBytes / memory.SubPageSize)
	if got := resident(c); got > maxResident {
		t.Errorf("resident %d transfer units exceeds capacity %d", got, maxResident)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := newSub()
	c.Touch(0)  // alloc miss
	c.Touch(0)  // hit
	c.Touch(64) // transfer miss
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 1 || s.TransferMisses != 1 || s.AllocMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRandomReplacementIsSeeded(t *testing.T) {
	run := func() []uint64 {
		c := New(SubCacheConfig(), sim.NewRNG(7))
		var evs []uint64
		stride := memory.Addr(64 * memory.BlockSize)
		for i := 0; i < 20; i++ {
			if _, ev := c.Touch(memory.Addr(i) * stride); ev != nil {
				evs = append(evs, ev.Unit)
			}
		}
		return evs
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no evictions")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed replacement diverged")
		}
	}
}

func TestThrashingStridePattern(t *testing.T) {
	// The SP effect: a 32 KB stride on the sub-cache (64 sets * 2KB blocks
	// -> every 16th block, cycle of 4 sets) concentrates accesses on 4
	// sets = 8 frames; sweeping 64 addresses repeatedly thrashes. A
	// 34 KB (17-block, coprime with 64) stride spreads over all sets.
	sweep := func(strideBlocks int64) uint64 {
		c := New(SubCacheConfig(), sim.NewRNG(3))
		for rep := 0; rep < 10; rep++ {
			for i := int64(0); i < 64; i++ {
				c.Touch(memory.Addr(i * strideBlocks * memory.BlockSize))
			}
		}
		return c.Stats().AllocMisses
	}
	unpadded := sweep(16)
	padded := sweep(17)
	if unpadded <= 3*padded {
		t.Errorf("thrashing not reproduced: unpadded %d alloc-misses vs padded %d",
			unpadded, padded)
	}
}

func TestPropertyTouchThenLookup(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(SubCacheConfig(), sim.NewRNG(9))
		// After touching a, an immediate Lookup(a) must succeed.
		for _, a := range addrs {
			addr := memory.Addr(a)
			c.Touch(addr)
			if !lookup(c, addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyResidencyBounded(t *testing.T) {
	f := func(addrs []uint32, seed uint64) bool {
		c := New(SubCacheConfig(), sim.NewRNG(seed))
		cap := int(SubCacheConfig().SizeBytes / memory.SubBlockSize)
		for _, a := range addrs {
			c.Touch(memory.Addr(a))
			if resident(c) > cap {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyHitAfterHitStable(t *testing.T) {
	// Touching the same address repeatedly never evicts and always hits
	// after the first access.
	f := func(a uint32, n uint8) bool {
		c := New(SubCacheConfig(), sim.NewRNG(1))
		addr := memory.Addr(a)
		c.Touch(addr)
		for i := 0; i < int(n%50); i++ {
			out, ev := c.Touch(addr)
			if out != Hit || ev != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLRUReplacementPolicy(t *testing.T) {
	cfg := SubCacheConfig()
	cfg.Policy = LRUReplacement
	c := New(cfg, sim.NewRNG(1))
	stride := memory.Addr(64 * memory.BlockSize) // all map to set 0
	c.Touch(0)                                   // block 0
	c.Touch(stride)                              // block 64
	c.Touch(0)                                   // re-touch block 0: now MRU
	_, ev := c.Touch(2 * stride)
	if ev == nil || ev.Unit != 64 {
		t.Fatalf("LRU evicted %+v, want block 64 (the LRU one)", ev)
	}
	// Deterministic without consuming randomness: repeat differently.
	c2 := New(cfg, sim.NewRNG(999))
	c2.Touch(0)
	c2.Touch(stride)
	c2.Touch(stride) // block 64 is MRU now
	_, ev2 := c2.Touch(2 * stride)
	if ev2 == nil || ev2.Unit != 0 {
		t.Fatalf("LRU evicted %+v, want block 0", ev2)
	}
}

func TestLRUKeepsHotLineUnderStreaming(t *testing.T) {
	// A hot block re-touched between streaming blocks survives under LRU;
	// under random replacement it eventually gets unlucky.
	countHotEvictions := func(policy Replacement) int {
		cfg := SubCacheConfig()
		cfg.Policy = policy
		c := New(cfg, sim.NewRNG(7))
		stride := memory.Addr(64 * memory.BlockSize)
		hot := memory.Addr(0)
		evictions := 0
		for i := 1; i < 400; i++ {
			if !lookup(c, hot) {
				evictions++
			}
			c.Touch(hot) // keep it MRU
			c.Touch(memory.Addr(i) * stride)
		}
		return evictions
	}
	if lru := countHotEvictions(LRUReplacement); lru > 1 {
		t.Errorf("LRU evicted the hot line %d times, want <= 1", lru)
	}
	if rnd := countHotEvictions(RandomReplacement); rnd < 10 {
		t.Errorf("random replacement evicted the hot line only %d times, want many", rnd)
	}
}
