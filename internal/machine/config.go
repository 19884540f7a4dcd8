package machine

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

// FabricKind selects the interconnect of a machine model.
type FabricKind int

const (
	// FabricRing is the KSR slotted pipelined ring (one- or two-level).
	FabricRing FabricKind = iota
	// FabricBus is a Symmetry-style shared bus with snooping caches.
	FabricBus
	// FabricButterfly is a Butterfly-style MIN without coherent caches.
	FabricButterfly
)

// Config describes a machine model. All cache latencies are in CPU cycles
// (they live on the node and scale with the processor clock); fabric
// latencies are in nanoseconds (the network clock is independent — on the
// KSR-2 the CPU doubled in speed while the ring stayed put, which is the
// one ratio behind every KSR-1 vs KSR-2 difference in the paper).
type Config struct {
	Name  string
	Cells int

	CPUCycle sim.Time // ns per CPU cycle: 50 on KSR-1, 25 on KSR-2

	// Cache hit costs, in CPU cycles.
	SubCacheReadCycles    int64 // published: 2
	SubCacheWriteCycles   int64 // writes cost slightly more (replacement)
	LocalCacheReadCycles  int64 // published: 18
	LocalCacheWriteCycles int64

	// Allocation overheads, in CPU cycles, charged on allocation-unit
	// misses. Calibrated to the paper's +50% local-cache access time under
	// block-allocating strides and +60% remote access time under
	// page-allocating strides.
	SubAllocExtraCycles  int64
	PageAllocExtraCycles int64

	Fabric    FabricKind
	Ring      fabric.RingConfig      // used when Fabric == FabricRing
	Bus       fabric.BusConfig       // used when Fabric == FabricBus
	Butterfly fabric.ButterflyConfig // used when Fabric == FabricButterfly

	// LocalMemCycles is the cost of a home-local access on a cacheless
	// NUMA machine (butterfly only).
	LocalMemCycles int64

	// Coherent selects the COMA cache+directory path; false models a
	// machine without hardware coherent caches, where every shared access
	// crosses the network to the address's home module.
	Coherent bool

	// TimerInterrupts, when true, models unsynchronized per-cell OS timer
	// interrupts (period InterruptEvery, cost InterruptCost). The paper
	// invokes these to explain why the software queue lock beats the
	// hardware lock even with writers only. Off by default.
	TimerInterrupts bool
	InterruptEvery  sim.Time
	InterruptCost   sim.Time

	// DisableSnarfing turns off the coherence protocol's read-snarfing,
	// for the ablation benchmarks. The real machine always snarfs.
	DisableSnarfing bool

	// LRUCaches switches both cache levels from the machine's random
	// replacement to LRU, for the ablation of the paper's claim that the
	// random policy caused SP's first-level thrashing.
	LRUCaches bool

	// Faults configures deterministic fault injection (ring slot loss,
	// link degradation, coherence NACKs, cell stalls, fail-stop). The
	// zero value injects nothing. All fault randomness derives from Seed.
	Faults faults.Config

	// Checked arms the coherence invariant checker: the directory
	// validates its bookkeeping after every protocol mutation and
	// CheckInvariants reports the first violation. Costs a constant
	// factor; off by default.
	Checked bool

	// Seed drives all machine-internal randomness (cache replacement,
	// interrupt phase).
	Seed uint64

	// Obs, if set, observes the machine: New threads the recorder
	// through the engine, fabric, directory, and caches, and Run arms
	// the telemetry sampler and captures the final counter snapshot.
	// Nil (the default) leaves every instrumentation hook disabled.
	Obs *obs.Recorder

	// Prof, if set, profiles the machine: New arms the simulated-time
	// phase-attribution hooks on the processor interface and the
	// coherence directory. Nil (the default) leaves profiling disabled
	// at one predictable branch per charge point.
	Prof *prof.Recorder
}

// Validate reports, with an actionable message, why the configuration
// cannot build a machine. It is the friendly front door for CLI input;
// New still panics on the same conditions for programmatic misuse.
func (c Config) Validate() error {
	if c.Cells < 1 {
		return fmt.Errorf("machine: %q needs at least one cell (got %d)", c.Name, c.Cells)
	}
	switch c.Fabric {
	case FabricRing:
		r := c.Ring
		r.Cells = c.Cells
		if err := r.Validate(); err != nil {
			return err
		}
	case FabricBus, FabricButterfly:
		// Any positive cell count works.
	default:
		return fmt.Errorf("machine: unknown fabric kind %d", c.Fabric)
	}
	for _, rate := range []struct {
		name string
		v    float64
	}{
		{"slot-loss", c.Faults.SlotLossRate},
		{"link-degrade", c.Faults.LinkDegradeRate},
		{"NACK", c.Faults.NACKRate},
	} {
		if rate.v < 0 || rate.v > 1 {
			return fmt.Errorf("machine: %s fault rate must be in [0, 1] (got %g)", rate.name, rate.v)
		}
	}
	if c.Faults.CellStallMean < 0 {
		return fmt.Errorf("machine: cell stall mean must be non-negative (got %v)", c.Faults.CellStallMean)
	}
	// Validate fail-stop entries in sorted cell order so the reported
	// error is the same on every run regardless of map iteration order.
	cells := make([]int, 0, len(c.Faults.FailStop))
	for cell := range c.Faults.FailStop {
		cells = append(cells, cell)
	}
	sort.Ints(cells)
	for _, cell := range cells {
		if cell < 0 || cell >= c.Cells {
			return fmt.Errorf("machine: fail-stop cell %d out of range [0, %d)", cell, c.Cells)
		}
		if at := c.Faults.FailStop[cell]; at <= 0 {
			return fmt.Errorf("machine: fail-stop time for cell %d must be positive (got %v)", cell, at)
		}
	}
	return nil
}

// KSR1 returns the calibrated 20 MHz KSR-1 model with the given cell count
// (up to 32 on one ring; more cells span a two-level ring).
func KSR1(cells int) Config {
	return Config{
		Name:                  "ksr1",
		Cells:                 cells,
		CPUCycle:              50,
		SubCacheReadCycles:    2,
		SubCacheWriteCycles:   3,
		LocalCacheReadCycles:  18,
		LocalCacheWriteCycles: 20,
		SubAllocExtraCycles:   9,
		PageAllocExtraCycles:  105,
		Fabric:                FabricRing,
		Ring:                  fabric.DefaultRingConfig(cells),
		Coherent:              true,
		InterruptEvery:        10 * sim.Millisecond,
		InterruptCost:         100 * sim.Microsecond,
		Seed:                  1,
	}
}

// KSR2 returns the KSR-2 model: identical to KSR-1 except the CPU clock is
// doubled. The ring is unchanged.
func KSR2(cells int) Config {
	c := KSR1(cells)
	c.Name = "ksr2"
	c.CPUCycle = 25
	return c
}

// RingLeafSize is the cells per ring:0 on every KSR model, and
// KSR2MaxCells the architectural limit of the extended study's machine:
// 34 ring:0s of 32 cells on one level-1 ring.
const (
	RingLeafSize = 32
	KSR2MaxCells = 34 * RingLeafSize
)

// KSR1Big returns the KSR-1 description scaled past one leaf ring (cells
// a multiple of 32, up to KSR2MaxCells), with the ARD crossing cost made
// explicit: one rotation (175 KSR-1 cycles) per level transition. That
// cost is both the model's inter-ring latency floor and the lookahead
// the PDES coordinator exploits, so NewBig requires it to be set.
func KSR1Big(cells int) Config {
	c := KSR1(cells)
	c.Name = "ksr1big"
	c.Ring.ARDCross = c.Ring.SlotHold + c.Ring.Overhead
	return c
}

// KSR2Big returns the two-level-ring KSR-2 model at the given cell count
// (a multiple of 32, up to KSR2MaxCells = 1088 = 34 leaf rings) — the
// extended study's machine. Identical to KSR1Big except the doubled CPU
// clock; the ring and ARD stay at KSR-1 speed.
func KSR2Big(cells int) Config {
	c := KSR1Big(cells)
	c.Name = "ksr2big"
	c.CPUCycle = 25
	return c
}

// Symmetry returns a Sequent-Symmetry-like model: snooping coherent caches
// on a single shared bus. Cache geometry is reused from the KSR model (the
// comparison in Section 3.2.3 depends only on the bus's serialization and
// the presence of coherent caches).
func Symmetry(cells int) Config {
	c := KSR1(cells)
	c.Name = "symmetry"
	c.Fabric = FabricBus
	c.Bus = fabric.DefaultBusConfig(cells)
	return c
}

// Butterfly returns a BBN-Butterfly-like model: a multistage network, NUMA
// memory, and no hardware coherent caches — every shared access crosses
// the network to the home module, and spinning means polling.
func Butterfly(cells int) Config {
	return Config{
		Name:           "butterfly",
		Cells:          cells,
		CPUCycle:       50,
		LocalMemCycles: 12,
		Fabric:         FabricButterfly,
		Butterfly:      fabric.DefaultButterflyConfig(cells),
		Coherent:       false,
		Seed:           1,
	}
}

// WithSeed returns a copy of the config with a different seed.
//
//lint:ignore ksrlint/deadapi read by bench/ksrbench, a separate module that ksrlint does not load
func (c Config) WithSeed(seed uint64) Config {
	c.Seed = seed
	return c
}

// WithCells returns a copy resized to the given cell count, keeping the
// fabric geometry consistent.
func (c Config) WithCells(cells int) Config {
	c.Cells = cells
	c.Ring.Cells = cells
	c.Bus.Cells = cells
	c.Butterfly.Cells = cells
	return c
}
