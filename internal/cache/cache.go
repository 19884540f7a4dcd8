// Package cache models the two on-node cache levels of a KSR-1 cell:
//
//   - the sub-cache (first level): 256 KB of data, 2-way set associative,
//     allocated in 2 KB blocks, filled in 64 B sub-blocks;
//   - the local cache (second level): 32 MB, 16-way set associative,
//     allocated in 16 KB pages, filled in 128 B sub-pages.
//
// Both levels use random replacement, which the paper identifies as the
// cause of first-level thrashing in the SP application (fixed there by
// data padding). Replacement draws from a seeded RNG so simulations are
// reproducible.
//
// The cache tracks *storage presence* only. Coherence validity (whether a
// present sub-page holds current data or is an invalidated place-holder)
// is the coherence package's job.
package cache

import (
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Replacement selects the victim policy.
type Replacement int

const (
	// RandomReplacement is the KSR-1's policy (and the reason SP thrashed
	// until its data was padded).
	RandomReplacement Replacement = iota
	// LRUReplacement is the counterfactual policy for the ablation study:
	// with LRU, the SP z-sweep's 4-set aliasing still thrashes (the reuse
	// distance exceeds the ways), but streaming patterns stop evicting
	// hot lines at random.
	LRUReplacement
)

// Config describes one cache level.
type Config struct {
	Name         string
	SizeBytes    int64
	Assoc        int
	AllocUnit    int64 // allocation grain: block (2 KB) or page (16 KB)
	TransferUnit int64 // fill grain: sub-block (64 B) or sub-page (128 B)
	Policy       Replacement
}

// SubCacheConfig returns the KSR-1 first-level data cache geometry.
func SubCacheConfig() Config {
	return Config{
		Name:         "sub-cache",
		SizeBytes:    256 * 1024,
		Assoc:        2,
		AllocUnit:    memory.BlockSize,
		TransferUnit: memory.SubBlockSize,
	}
}

// LocalCacheConfig returns the KSR-1 second-level cache geometry.
func LocalCacheConfig() Config {
	return Config{
		Name:         "local-cache",
		SizeBytes:    32 * 1024 * 1024,
		Assoc:        16,
		AllocUnit:    memory.PageSize,
		TransferUnit: memory.SubPageSize,
	}
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int64 {
	return c.SizeBytes / (int64(c.Assoc) * c.AllocUnit)
}

// unitsPerAlloc returns transfer units per allocation unit.
func (c Config) unitsPerAlloc() int { return int(c.AllocUnit / c.TransferUnit) }

// Outcome classifies one access.
type Outcome int

const (
	// Hit: the transfer unit is present.
	Hit Outcome = iota
	// TransferMiss: the allocation unit is resident but the transfer unit
	// must be filled (a sub-block or sub-page fetch from the next level).
	TransferMiss
	// AllocMiss: a new allocation unit must be claimed first (the paper's
	// 2 KB block / 16 KB page allocation overhead), possibly evicting.
	AllocMiss
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case TransferMiss:
		return "transfer-miss"
	case AllocMiss:
		return "alloc-miss"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Evicted describes an allocation unit displaced by random replacement.
type Evicted struct {
	Unit    uint64   // allocation-unit index (addr / AllocUnit)
	Present []uint64 // transfer-unit indices that were resident
}

// Stats holds per-cache counters, mirroring the hardware performance
// monitor the authors used.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	TransferMisses uint64
	AllocMisses    uint64
	Evictions      uint64
	Purges         uint64
}

// MissRatio returns (transfer+alloc misses) / accesses.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.TransferMisses+s.AllocMisses) / float64(s.Accesses)
}

type frame struct {
	valid   bool
	tag     uint64   // allocation-unit index
	present []uint64 // bitmap, one bit per transfer unit in the allocation unit
	nset    int      // count of present transfer units
	lastUse uint64   // access stamp for the LRU ablation policy
}

func (f *frame) has(i int) bool { return f.present[i>>6]&(1<<(i&63)) != 0 }
func (f *frame) setBit(i int)   { f.present[i>>6] |= 1 << (i & 63) }
func (f *frame) clearBit(i int) { f.present[i>>6] &^= 1 << (i & 63) }

// rowsPerSlab is how many set rows one slab allocation covers: frames and
// presence words are carved from slabs so warming a cache costs a couple
// of allocations per 64 sets rather than assoc+1 per set.
const rowsPerSlab = 64

// Cache is one set-associative cache level. Set rows are allocated
// lazily on the first allocation miss that maps to them: a cold cache
// costs one nil slice header per set, which is what keeps a 1088-cell
// machine's start-up footprint in megabytes (the eager layout was
// ~0.7 MB per cell in local-cache frames alone).
type Cache struct {
	cfg          Config
	nsets        int64
	presentWords int // uint64 words per frame bitmap
	sets         [][]frame
	rng          *sim.RNG
	stats        Stats

	frameSlab []frame  // carve source for new rows
	wordSlab  []uint64 // carve source for new presence bitmaps
	slabBytes int64    // total bytes committed to slabs, for Footprint

	// evicted backs the eviction record Touch returns, reused from one
	// eviction to the next so the access path allocates nothing.
	evicted Evicted

	// Fast path: the most recently touched frame.
	lastUnit  uint64
	lastFrame *frame

	clock uint64 // access stamp source for LRU

	rec *obs.Recorder // nil = no tracing
	tid int           // trace lane (owning cell id)
}

// New builds a cache. rng drives random replacement.
func New(cfg Config, rng *sim.RNG) *Cache {
	nsets := cfg.Sets()
	if nsets < 1 {
		panic("cache: geometry yields no sets: " + cfg.Name)
	}
	c := &Cache{cfg: cfg, nsets: nsets, rng: rng, lastFrame: nil}
	c.presentWords = (cfg.unitsPerAlloc() + 63) / 64
	c.sets = make([][]frame, nsets) // rows stay nil until first touched
	return c
}

// row returns set si's frames, carving them from the slabs on first use.
func (c *Cache) row(si int64) []frame {
	if c.sets[si] == nil {
		c.newRow(si)
	}
	return c.sets[si]
}

// newRow carves set si's frames from the slabs on its first allocation.
//
//ksr:coldpath once per set
func (c *Cache) newRow(si int64) {
	assoc := c.cfg.Assoc
	if len(c.frameSlab) < assoc {
		n := assoc * rowsPerSlab
		c.frameSlab = make([]frame, n)
		c.slabBytes += int64(n) * int64(unsafe.Sizeof(frame{}))
	}
	words := assoc * c.presentWords
	if len(c.wordSlab) < words {
		n := words * rowsPerSlab
		c.wordSlab = make([]uint64, n)
		c.slabBytes += int64(n) * 8
	}
	row := c.frameSlab[:assoc:assoc]
	c.frameSlab = c.frameSlab[assoc:]
	for j := range row {
		row[j].present = c.wordSlab[j*c.presentWords : (j+1)*c.presentWords : (j+1)*c.presentWords]
	}
	c.wordSlab = c.wordSlab[words:]
	c.sets[si] = row
}

// Footprint returns the heap bytes currently committed to frame state:
// the row index plus every slab backing touched rows. It is the basis of
// the bytes_per_cell metric that ksrsim bench reports and CI gates on.
func (c *Cache) Footprint() int64 {
	const sliceHeader = int64(unsafe.Sizeof([]frame(nil)))
	return int64(len(c.sets))*sliceHeader + c.slabBytes
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns cumulative counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (contents stay).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetObs attaches a trace recorder; misses and evictions are emitted on
// lane tid (the owning cell) when the cache category is enabled. The
// recorder is kept only when that category is on, so the Touch hot path
// pays one nil check.
func (c *Cache) SetObs(rec *obs.Recorder, tid int) {
	c.rec = nil
	if rec.Enabled(obs.CatCache) {
		c.rec, c.tid = rec, tid
	}
}

func (c *Cache) setOf(unit uint64) int64 { return int64(unit % uint64(c.nsets)) }

func (c *Cache) unitOf(a memory.Addr) uint64 { return uint64(a) / uint64(c.cfg.AllocUnit) }

func (c *Cache) transferIdx(a memory.Addr, unit uint64) int {
	return int((int64(a) - int64(unit)*c.cfg.AllocUnit) / c.cfg.TransferUnit)
}

// find returns the frame holding unit, or nil. An untouched (nil) set
// row trivially holds nothing.
func (c *Cache) find(unit uint64) *frame {
	c.clock++
	if c.lastFrame != nil && c.lastFrame.valid && c.lastUnit == unit && c.lastFrame.tag == unit {
		c.lastFrame.lastUse = c.clock
		return c.lastFrame
	}
	set := c.sets[c.setOf(unit)]
	for i := range set {
		if set[i].valid && set[i].tag == unit {
			c.lastUnit = unit
			c.lastFrame = &set[i]
			set[i].lastUse = c.clock
			return &set[i]
		}
	}
	return nil
}

// Lookup reports whether the transfer unit containing a is present,
// without changing any state.
func (c *Cache) Lookup(a memory.Addr) bool {
	unit := c.unitOf(a)
	f := c.find(unit)
	return f != nil && f.has(c.transferIdx(a, unit))
}

// Touch performs an access to a: on a miss the transfer unit is filled,
// allocating (and possibly evicting) an allocation unit as needed. The
// second result is non-nil only when an eviction occurred; it is valid
// until the cache's next Touch.
func (c *Cache) Touch(a memory.Addr) (Outcome, *Evicted) {
	c.stats.Accesses++
	unit := c.unitOf(a)
	ti := c.transferIdx(a, unit)
	if f := c.find(unit); f != nil {
		if f.has(ti) {
			c.stats.Hits++
			return Hit, nil
		}
		f.setBit(ti)
		f.nset++
		c.stats.TransferMisses++
		if c.rec != nil {
			c.traceMiss(a)
		}
		return TransferMiss, nil
	}
	// Allocation miss: claim a frame in the set, materializing the row if
	// this is the set's first allocation.
	c.stats.AllocMisses++
	set := c.row(c.setOf(unit))
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	var ev *Evicted
	if victim < 0 {
		if c.cfg.Policy == LRUReplacement {
			victim = 0
			for i := 1; i < len(set); i++ {
				if set[i].lastUse < set[victim].lastUse {
					victim = i
				}
			}
		} else {
			victim = c.rng.Intn(len(set)) // random replacement
		}
		f := &set[victim]
		c.stats.Evictions++
		ev = &c.evicted
		ev.Unit = f.tag
		ev.Present = ev.Present[:0]
		base := f.tag * uint64(c.cfg.unitsPerAlloc())
		for wi, w := range f.present {
			for ; w != 0; w &= w - 1 {
				i := wi<<6 + bits.TrailingZeros64(w)
				ev.Present = append(ev.Present, base+uint64(i))
			}
			f.present[wi] = 0
		}
		f.nset = 0
	}
	f := &set[victim]
	f.valid = true
	f.tag = unit
	f.setBit(ti)
	f.nset = 1
	f.lastUse = c.clock
	c.lastUnit = unit
	c.lastFrame = f
	if c.rec != nil {
		c.traceAlloc(a, ev)
	}
	return AllocMiss, ev
}

// traceMiss records a transfer miss on a.
//
//ksr:coldpath tracing only: reached when the cache category is armed
func (c *Cache) traceMiss(a memory.Addr) {
	c.rec.Instant(obs.CatCache, c.tid, c.cfg.Name+".miss", obs.Arg{Key: "addr", Val: int64(a)})
}

// traceAlloc records an allocation miss on a and the eviction it caused,
// if any.
//
//ksr:coldpath tracing only: reached when the cache category is armed
func (c *Cache) traceAlloc(a memory.Addr, ev *Evicted) {
	c.rec.Instant(obs.CatCache, c.tid, c.cfg.Name+".alloc", obs.Arg{Key: "addr", Val: int64(a)})
	if ev != nil {
		c.rec.Instant(obs.CatCache, c.tid, c.cfg.Name+".evict",
			obs.Arg{Key: "unit", Val: int64(ev.Unit)}, obs.Arg{Key: "present", Val: int64(len(ev.Present))})
	}
}

// PurgeTransferUnit removes presence of the transfer unit containing a,
// keeping the allocation frame (a place-holder, in KSR terms, lives at the
// coherence layer; here purge models dropping the stale copy from the
// sub-cache on invalidation, or enforcing inclusion on local-cache
// eviction).
func (c *Cache) PurgeTransferUnit(a memory.Addr) {
	unit := c.unitOf(a)
	if f := c.find(unit); f != nil {
		ti := c.transferIdx(a, unit)
		if f.has(ti) {
			f.clearBit(ti)
			f.nset--
			c.stats.Purges++
		}
	}
}

// PurgeRange purges every transfer unit overlapping [base, base+size).
func (c *Cache) PurgeRange(base memory.Addr, size int64) {
	start := int64(base) / c.cfg.TransferUnit * c.cfg.TransferUnit
	for a := start; a < int64(base)+size; a += c.cfg.TransferUnit {
		c.PurgeTransferUnit(memory.Addr(a))
	}
}

// TransferUnitBase returns the first address of transfer-unit index u
// (as reported in Evicted.Present).
func (c *Cache) TransferUnitBase(u uint64) memory.Addr {
	return memory.Addr(int64(u) * c.cfg.TransferUnit)
}

// Resident returns how many transfer units are present in total. O(size);
// intended for tests and diagnostics.
func (c *Cache) Resident() int {
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
