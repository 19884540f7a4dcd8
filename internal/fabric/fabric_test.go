package fabric

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/sim"
)

// runOne runs a single synchronous access and returns its latency.
func runOne(t *testing.T, mk func(e *sim.Engine) Fabric, src, dst int, addr memory.Addr) sim.Time {
	t.Helper()
	e := sim.NewEngine()
	f := mk(e)
	var lat sim.Time
	e.Spawn("req", func(p *sim.Process) {
		lat = f.Access(p, src, dst, addr)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return lat
}

func TestRingUnloadedLatencyMatchesPublished(t *testing.T) {
	// 175 cycles at 50 ns = 8750 ns for a same-ring remote access.
	lat := runOne(t, func(e *sim.Engine) Fabric {
		return NewRing(e, DefaultRingConfig(32))
	}, 0, 1, 0)
	if lat != 8750 {
		t.Errorf("unloaded ring latency = %v, want 8750ns (175 cycles)", lat)
	}
}

func TestRingLatencyIndependentOfDistance(t *testing.T) {
	// On a unidirectional ring, accessing any remote cell costs the same
	// (paper footnote 3).
	near := runOne(t, func(e *sim.Engine) Fabric { return NewRing(e, DefaultRingConfig(32)) }, 0, 1, 0)
	far := runOne(t, func(e *sim.Engine) Fabric { return NewRing(e, DefaultRingConfig(32)) }, 0, 31, 0)
	if near != far {
		t.Errorf("latency depends on distance: near %v, far %v", near, far)
	}
}

func TestRingSubringInterleaving(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(32))
	a0 := memory.Addr(0)                      // sub-page 0 -> sub-ring 0
	a1 := memory.Addr(memory.SubPageSize)     // sub-page 1 -> sub-ring 1
	a2 := memory.Addr(2 * memory.SubPageSize) // sub-page 2 -> sub-ring 0
	if r.subring(a0) != 0 || r.subring(a1) != 1 || r.subring(a2) != 0 {
		t.Errorf("sub-ring interleave wrong: %d %d %d",
			r.subring(a0), r.subring(a1), r.subring(a2))
	}
}

func TestRingNoContentionBelowSlotCount(t *testing.T) {
	// 20 simultaneous distinct accesses (10 per sub-ring) fit in the slots:
	// everyone sees the unloaded latency. This is the paper's "pipelining
	// provides multiple communication paths" property.
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(32))
	lats := make([]sim.Time, 20)
	for i := 0; i < 20; i++ {
		i := i
		e.Spawn(fmt.Sprint("p", i), func(p *sim.Process) {
			lats[i] = r.Access(p, i, (i+1)%32, memory.Addr(i)*memory.SubPageSize)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, l := range lats {
		if l != 8750 {
			t.Errorf("access %d latency %v under light load, want 8750ns", i, l)
		}
	}
}

func TestRingQueuesBeyondSlotCapacity(t *testing.T) {
	// 40 simultaneous accesses on ONE sub-ring (12 slots): the 13th and
	// later wait. Mean latency must exceed unloaded.
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(32))
	var over int
	for i := 0; i < 40; i++ {
		i := i
		e.Spawn(fmt.Sprint("p", i), func(p *sim.Process) {
			// All even sub-pages -> all on sub-ring 0.
			lat := r.Access(p, i%32, (i+1)%32, memory.Addr(2*i)*memory.SubPageSize)
			if lat > 8750 {
				over++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if over != 40-12 {
		t.Errorf("%d accesses queued, want 28 (40 offered, 12 slots)", over)
	}
	if r.Stats().TotalWait == 0 {
		t.Error("no slot wait recorded despite oversubscription")
	}
}

func TestRingTwoLevelHierarchy(t *testing.T) {
	cfg := DefaultRingConfig(64)
	e := sim.NewEngine()
	r := NewRing(e, cfg)
	if r.Levels() != 2 {
		t.Fatalf("64-cell ring has %d levels, want 2", r.Levels())
	}
	var same, cross sim.Time
	e.Spawn("same", func(p *sim.Process) { same = r.Access(p, 0, 31, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e2 := sim.NewEngine()
	r2 := NewRing(e2, cfg)
	e2.Spawn("cross", func(p *sim.Process) { cross = r2.Access(p, 0, 40, 0) })
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if same != 8750 {
		t.Errorf("same-leaf latency = %v, want 8750ns", same)
	}
	if cross != 3*8750 {
		t.Errorf("cross-leaf latency = %v, want %vns (leaf+top+leaf)", cross, 3*8750)
	}
}

func TestRingSingleLevelHasNoTop(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(32))
	if r.Levels() != 1 {
		t.Errorf("32-cell ring has %d levels, want 1", r.Levels())
	}
	if got := r.UnloadedLatency(0, 5, 0); got != 8750 {
		t.Errorf("UnloadedLatency = %v", got)
	}
}

func TestRingAsyncAccessCompletes(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(32))
	var doneAt sim.Time = -1
	r.AccessAsync(0, 1, 0, func() { doneAt = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 8750 {
		t.Errorf("async transaction completed at %v, want 8750ns", doneAt)
	}
	if r.Stats().Transactions != 1 {
		t.Errorf("Transactions = %d, want 1", r.Stats().Transactions)
	}
}

func TestRingAsyncContendsWithSync(t *testing.T) {
	// Fill sub-ring 0's 12 slots with async transactions, then a sync
	// access on the same sub-ring must wait.
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(32))
	for i := 0; i < 12; i++ {
		r.AccessAsync(i, i+1, memory.Addr(2*i)*memory.SubPageSize, nil)
	}
	var lat sim.Time
	e.Spawn("sync", func(p *sim.Process) {
		lat = r.Access(p, 20, 21, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if lat <= 8750 {
		t.Errorf("sync access latency %v with saturated sub-ring, want > 8750ns", lat)
	}
}

func TestBusSerializesEverything(t *testing.T) {
	// N simultaneous transactions take N*BusTime: no parallel paths.
	e := sim.NewEngine()
	b := NewBus(e, DefaultBusConfig(8))
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(fmt.Sprint("p", i), func(p *sim.Process) {
			b.Access(p, i, (i+1)%8, memory.Addr(i)*memory.SubPageSize)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 8*1000 {
		t.Errorf("8 bus transactions finished at %v, want 8000ns", e.Now())
	}
}

func TestBusAsync(t *testing.T) {
	e := sim.NewEngine()
	b := NewBus(e, DefaultBusConfig(4))
	done := 0
	for i := 0; i < 3; i++ {
		b.AccessAsync(0, 1, 0, func() { done++ })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Errorf("async completions = %d, want 3", done)
	}
	if e.Now() != 3000 {
		t.Errorf("finished at %v, want 3000ns (serialized)", e.Now())
	}
}

func TestButterflyParallelPathsToDistinctModules(t *testing.T) {
	// Accesses to distinct home modules proceed in parallel: total time is
	// one transaction, not N.
	e := sim.NewEngine()
	bf := NewButterfly(e, DefaultButterflyConfig(16))
	for i := 0; i < 16; i++ {
		i := i
		e.Spawn(fmt.Sprint("p", i), func(p *sim.Process) {
			bf.Access(p, i, 0, memory.Addr(i)*memory.SubPageSize)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	oneTransaction := sim.Time(2*bf.stages)*500 + 1000
	if e.Now() != oneTransaction {
		t.Errorf("16 disjoint accesses finished at %v, want %v (parallel)", e.Now(), oneTransaction)
	}
}

func TestButterflyHotSpotSerializes(t *testing.T) {
	// All accesses to one module serialize at the module port.
	e := sim.NewEngine()
	bf := NewButterfly(e, DefaultButterflyConfig(16))
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(fmt.Sprint("p", i), func(p *sim.Process) {
			bf.Access(p, i, 0, 0) // same address -> same home module
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(2*bf.stages)*500 + 8*1000
	if e.Now() != want {
		t.Errorf("8 hot-spot accesses finished at %v, want %v", e.Now(), want)
	}
}

func TestButterflyStages(t *testing.T) {
	for _, c := range []struct{ cells, stages int }{
		{1, 1}, {2, 1}, {4, 2}, {8, 3}, {16, 4}, {64, 6}, {100, 7},
	} {
		e := sim.NewEngine()
		bf := NewButterfly(e, DefaultButterflyConfig(c.cells))
		if bf.stages != c.stages {
			t.Errorf("Stages(%d cells) = %d, want %d", c.cells, bf.stages, c.stages)
		}
	}
}

func TestButterflyAsync(t *testing.T) {
	e := sim.NewEngine()
	bf := NewButterfly(e, DefaultButterflyConfig(8))
	fired := false
	bf.AccessAsync(0, 0, 0, func() { fired = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("async butterfly transaction never completed")
	}
}

func TestFabricInterfaceCompliance(t *testing.T) {
	e := sim.NewEngine()
	fabrics := []Fabric{
		NewRing(e, DefaultRingConfig(4)),
		NewBus(e, DefaultBusConfig(4)),
		NewButterfly(e, DefaultButterflyConfig(4)),
	}
	for _, f := range fabrics {
		if f.Nodes() != 4 {
			t.Errorf("%T: Nodes = %d", f, f.Nodes())
		}
	}
}

func TestStatsMeanLatency(t *testing.T) {
	var s Stats
	if s.MeanLatency() != 0 {
		t.Error("MeanLatency of empty stats should be 0")
	}
	s.Transactions = 4
	s.TotalLatency = 1000
	if s.MeanLatency() != 250 {
		t.Errorf("MeanLatency = %v, want 250", s.MeanLatency())
	}
}

func TestRingMaxInFlightTracked(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(32))
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn(fmt.Sprint("p", i), func(p *sim.Process) {
			r.Access(p, i, i+1, memory.Addr(i)*memory.SubPageSize)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Stats().MaxInFlight != 5 {
		t.Errorf("MaxInFlight = %d, want 5", r.Stats().MaxInFlight)
	}
}

func TestRingConfigValidate(t *testing.T) {
	if err := DefaultRingConfig(32).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := DefaultRingConfig(64).Validate(); err != nil {
		t.Errorf("two-leaf config invalid: %v", err)
	}
	bad := []RingConfig{
		DefaultRingConfig(0),
		DefaultRingConfig(-3),
		{Cells: 4, LeafSize: 0, SubRings: 2, SlotsPerSubRing: 12},
		{Cells: 4, LeafSize: 4, SubRings: 0, SlotsPerSubRing: 12},
		{Cells: 4, LeafSize: 4, SubRings: 2, SlotsPerSubRing: 0},
		DefaultRingConfig(40), // 40 cells do not divide into 32-cell leaves
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

// faultyRingLatency runs accesses on a ring with the given fault config
// and returns the total latency and injector stats.
func faultyRingLatency(t *testing.T, fcfg faults.Config, seed uint64, accesses int) (sim.Time, faults.Stats) {
	t.Helper()
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(8))
	inj := faults.New(fcfg, seed)
	r.SetFaults(inj)
	var total sim.Time
	e.Spawn("req", func(p *sim.Process) {
		for k := 0; k < accesses; k++ {
			total += r.Access(p, 0, 1, 0)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return total, inj.Stats()
}

func TestRingSlotLossStretchesLatency(t *testing.T) {
	clean, _ := faultyRingLatency(t, faults.Config{}, 1, 50)
	lossy, st := faultyRingLatency(t, faults.Config{SlotLossRate: 0.5}, 1, 50)
	if st.SlotLosses == 0 {
		t.Fatal("no slot losses injected at rate 0.5")
	}
	// Every loss costs exactly one extra rotation (SlotHold).
	want := clean + sim.Time(st.SlotLosses)*DefaultRingConfig(8).SlotHold
	if lossy != want {
		t.Errorf("lossy latency = %v, want clean %v + %d losses = %v", lossy, clean, st.SlotLosses, want)
	}
}

func TestRingLinkDegradeStretchesLatency(t *testing.T) {
	clean, _ := faultyRingLatency(t, faults.Config{}, 1, 50)
	slow, st := faultyRingLatency(t, faults.Config{LinkDegradeRate: 0.5, LinkDegradeFactor: 3}, 1, 50)
	if st.LinkDegrades == 0 {
		t.Fatal("no link degrades injected at rate 0.5")
	}
	want := clean + sim.Time(st.LinkDegrades)*2*DefaultRingConfig(8).SlotHold
	if slow != want {
		t.Errorf("degraded latency = %v, want %v", slow, want)
	}
}

func TestRingFaultsDeterministic(t *testing.T) {
	a, sa := faultyRingLatency(t, faults.Uniform(0.2), 7, 100)
	b, sb := faultyRingLatency(t, faults.Uniform(0.2), 7, 100)
	if a != b || sa != sb {
		t.Errorf("same seed diverged: %v/%+v vs %v/%+v", a, sa, b, sb)
	}
}

func TestRingAsyncFaultsComplete(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(8))
	inj := faults.New(faults.Config{SlotLossRate: 0.5, LinkDegradeRate: 0.5}, 3)
	r.SetFaults(inj)
	done := 0
	for k := 0; k < 40; k++ {
		r.AccessAsync(0, 1, 0, func() { done++ })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 40 {
		t.Errorf("completed %d async transactions, want 40", done)
	}
	if inj.Stats().SlotLosses == 0 {
		t.Error("async path injected no slot losses at rate 0.5")
	}
}
