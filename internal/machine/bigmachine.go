package machine

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/prof"
	"repro/internal/sim"
)

// BigMachine is the KSR-2 two-level machine scaled past one leaf ring: up
// to 34 complete ring:0 machines (32 cells each, own caches and
// directory) joined by a level-1 ring through ARD routing units.
//
// Unlike the single-Machine two-level Ring — which shares one engine and
// one directory across all cells — the BigMachine gives every ring:0 its
// own Machine and event core, plus one extra partition for the level-1
// ring's slot pools (the hub). The partitions interact only through
// cross-ring transactions whose latency is at least one ARD crossing, so
// a conservative PDES coordinator (sim.Partitioned) runs them in
// barrier windows with the crossing as lookahead: results are
// byte-identical at any worker count, and a 1088-cell NAS-kernel run
// completes in seconds instead of minutes.
//
// The modelling trade is explicit: cross-ring traffic is not
// cache-coherent — each ring's ALLCACHE directory spans its own 32
// cells, and inter-ring communication happens through CrossFetch /
// CrossPost transactions that charge the full leaf-top-leaf path. That
// matches how the extended study's hierarchical workloads are written
// (ring-local shared memory, explicit reductions across rings), and it
// is exactly the property that gives the simulator its lookahead.
type BigMachine struct {
	cfg   Config
	leaf  int // cells per ring:0
	rings []*Machine
	hub   *hub // nil for a single ring
	coord *sim.Partitioned

	// Per-source-ring cross-transaction tallies. Each slot is only
	// touched by code running in that ring's partition.
	crossTx   []uint64   // all cross-ring transactions (fetches + posts)
	fetchTx   []uint64   // synchronous fetches only
	crossTime []sim.Time // requester-observed fetch latency
}

// hub models the level-1 ring as its own partition: per-sub-ring slot
// pools (with the top ring's higher slot count) plus the rotation and
// ARD-crossing costs, driven entirely by scheduled events so the
// partition has no processes of its own.
type hub struct {
	eng      *sim.Engine
	slots    []*sim.Resource
	hold     sim.Time
	overhead sim.Time
}

// mixSeed derives ring r's machine seed from the top-level seed
// (splitmix64 finalizer), so rings have decorrelated replacement streams
// while the whole machine stays a pure function of cfg.Seed.
func mixSeed(seed uint64, r int) uint64 {
	z := seed + (uint64(r)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewBig builds a partitioned two-level machine from a ring config whose
// cell count spans one or more leaf rings (use KSR1Big / KSR2Big). The
// config must carry an explicit ARD crossing cost when it has more than
// one ring — that cost is the PDES lookahead.
func NewBig(cfg Config) (*BigMachine, error) {
	if cfg.Fabric != FabricRing {
		return nil, fmt.Errorf("machine: a big machine needs a ring fabric")
	}
	if cfg.Obs != nil {
		return nil, fmt.Errorf("machine: big machines run unobserved (tracing assumes one engine)")
	}
	if cfg.Prof != nil {
		return nil, fmt.Errorf("machine: big machines need per-ring profile recorders; use AttachProf")
	}
	if cfg.Cells > KSR2MaxCells {
		return nil, fmt.Errorf("machine: %d cells exceed the %d-cell architectural limit", cfg.Cells, KSR2MaxCells)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	leaf := cfg.Ring.LeafSize
	if cfg.Cells < leaf {
		leaf = cfg.Cells
	}
	nRings := cfg.Cells / leaf
	if nRings > 1 && cfg.Ring.ARDCross <= 0 {
		return nil, fmt.Errorf("machine: a multi-ring big machine needs an explicit ARD crossing cost (use KSR1Big/KSR2Big)")
	}
	b := &BigMachine{
		cfg:       cfg,
		leaf:      leaf,
		crossTx:   make([]uint64, nRings),
		fetchTx:   make([]uint64, nRings),
		crossTime: make([]sim.Time, nRings),
	}
	var engines []*sim.Engine
	for r := 0; r < nRings; r++ {
		sub := cfg.WithCells(leaf)
		sub.Name = fmt.Sprintf("%s/ring%d", cfg.Name, r)
		sub.Seed = mixSeed(cfg.Seed, r)
		m := New(sub)
		b.rings = append(b.rings, m)
		engines = append(engines, m.Engine())
	}
	lookahead := cfg.Ring.ARDCross
	if nRings > 1 {
		he := sim.NewEngine()
		h := &hub{eng: he, hold: cfg.Ring.SlotHold, overhead: cfg.Ring.Overhead}
		factor := cfg.Ring.TopSlotFactor
		if factor < 1 {
			factor = 1
		}
		for s := 0; s < cfg.Ring.SubRings; s++ {
			h.slots = append(h.slots, sim.NewResource(he,
				fmt.Sprintf("ring1.sub%d", s), cfg.Ring.SlotsPerSubRing*factor))
		}
		b.hub = h
		engines = append(engines, he)
	} else {
		// A single ring never sends cross-partition messages; any
		// positive lookahead satisfies the coordinator.
		lookahead = cfg.Ring.SlotHold + cfg.Ring.Overhead
	}
	b.coord = sim.NewPartitioned(lookahead, engines...)
	return b, nil
}

// Config returns the whole-machine configuration.
func (b *BigMachine) Config() Config { return b.cfg }

// Cells returns the total cell count across rings.
func (b *BigMachine) Cells() int { return b.cfg.Cells }

// Rings returns the number of ring:0 partitions.
func (b *BigMachine) Rings() int { return len(b.rings) }

// RingSize returns the cells per ring:0.
func (b *BigMachine) RingSize() int { return b.leaf }

// Ring returns ring r's Machine (its cells are numbered 0..RingSize-1
// locally; GlobalID maps to flat cell ids).
func (b *BigMachine) Ring(r int) *Machine { return b.rings[r] }

// GlobalID flattens (ring, local cell) to a machine-wide cell id.
func (b *BigMachine) GlobalID(ring, cell int) int { return ring*b.leaf + cell }

// Coordinator returns the PDES coordinator, e.g. to set the worker count
// or read window/message statistics.
func (b *BigMachine) Coordinator() *sim.Partitioned { return b.coord }

// Run spawns procsPerRing Procs on every ring (body receives the ring
// index and the ring-local Proc), drives all partitions to completion,
// and returns the elapsed simulated time (max over rings). On error the
// parked process goroutines are released; the machine must then be
// discarded.
func (b *BigMachine) Run(procsPerRing int, body func(ring int, p *Proc)) (sim.Time, error) {
	start := b.maxNow()
	for r, m := range b.rings {
		r := r
		if err := m.SpawnProcs(procsPerRing, fmt.Sprintf("ring%d.", r), func(p *Proc) {
			body(r, p)
		}); err != nil {
			b.Close() // release procs already parked on earlier rings
			return 0, err
		}
	}
	if err := b.coord.Run(); err != nil {
		b.Close()
		return 0, err
	}
	return b.maxNow() - start, nil
}

// AttachProf arms the simulated-time profiler on every leaf ring, one
// recorder per partition labelled "<label>/ringNN". Per-partition
// recorders keep the no-locking invariant (each ring's charges stay on
// its own engine's goroutine) while the session's label-sorted merge
// keeps the combined profile byte-identical at any -partitions count.
// A nil session is a no-op.
func (b *BigMachine) AttachProf(s *prof.Session, label string) {
	if s == nil {
		return
	}
	for r, m := range b.rings {
		m.AttachProf(s.Recorder(fmt.Sprintf("%s/ring%02d", label, r)))
	}
}

func (b *BigMachine) maxNow() sim.Time {
	var t sim.Time
	for _, m := range b.rings {
		if now := m.Now(); now > t {
			t = now
		}
	}
	return t
}

// Close releases every partition's parked process goroutines. Call when
// abandoning the machine; it must not be used afterwards.
func (b *BigMachine) Close() {
	for _, m := range b.rings {
		m.Close()
	}
	if b.hub != nil {
		b.hub.eng.Shutdown()
	}
}

// FootprintBytes sums the rings' committed simulation-state bytes.
func (b *BigMachine) FootprintBytes() int64 {
	var n int64
	for _, m := range b.rings {
		n += m.FootprintBytes()
	}
	return n
}

// BytesPerCell returns the committed simulation-state bytes per cell —
// the sparse-state metric ksrsim bench records and CI gates on.
func (b *BigMachine) BytesPerCell() float64 {
	return float64(b.FootprintBytes()) / float64(b.cfg.Cells)
}

// TotalMonitor sums the per-cell monitors across every ring.
func (b *BigMachine) TotalMonitor() Monitor {
	var tot Monitor
	for _, m := range b.rings {
		tot.Add(m.TotalMonitor())
	}
	return tot
}

// CheckInvariants sweeps every ring's coherence directory.
func (b *BigMachine) CheckInvariants() error {
	for _, m := range b.rings {
		if err := m.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// CrossStats returns the cross-ring transaction count and the mean
// requester latency over synchronous fetches (posts complete
// asynchronously and contribute no latency sample).
func (b *BigMachine) CrossStats() (tx uint64, mean sim.Time) {
	var total sim.Time
	var fetches uint64
	for r := range b.crossTx {
		tx += b.crossTx[r]
		fetches += b.fetchTx[r]
		total += b.crossTime[r]
	}
	if fetches > 0 {
		mean = total / sim.Time(fetches)
	}
	return tx, mean
}

// relay carries one packet across the level-1 ring: a slot on the
// address-interleaved sub-ring for one rotation, then fixed overhead.
// Runs entirely in the hub partition.
func (h *hub) relay(addr memory.Addr, done func()) {
	s := int(uint64(addr.SubPage()) % uint64(len(h.slots)))
	res := h.slots[s]
	res.AcquireAsync(func() {
		h.eng.Schedule(h.hold, func() {
			res.Release()
			h.eng.Schedule(h.overhead, done)
		})
	})
}

// gate is a one-shot cross-partition completion signal living on the
// waiter's engine: fire (from an injected event) opens it and wakes the
// parked process.
type gate struct {
	c    *sim.Cond
	open bool
}

func newGate(e *sim.Engine, name string) *gate {
	return &gate{c: sim.NewCond(e, name)}
}

func (g *gate) fire() {
	g.open = true
	g.c.Broadcast()
}

// waitThen, a continuation step of p, ends p's chain once the gate is
// open.
func (g *gate) waitThen(p *sim.Process) {
	if !g.open {
		g.c.WaitThen(p, func() { g.waitThen(p) })
	}
}

// toHub returns the second half of a cross-ring transaction that has
// circulated ring src's leaf to its ARD: cross to the hub, rotate the
// level-1 ring, cross to ring dst, circulate dst's leaf ring, then run
// fn in dst's partition.
func (b *BigMachine) toHub(src, dst int, addr memory.Addr, fn func()) func() {
	ard := b.cfg.Ring.ARDCross
	hubIdx := len(b.rings)
	return func() {
		b.coord.Send(src, hubIdx, ard, func() {
			b.hub.relay(addr, func() {
				b.coord.Send(hubIdx, dst, ard, func() {
					// Destination leaf rotation: any same-leaf pair is one
					// hop on the slotted ring; cell ids only label the path.
					b.rings[dst].Fabric().AccessAsync(0, 1, addr, fn)
				})
			})
		})
	}
}

// CrossFetch performs one synchronous remote transaction from p (running
// on ring src) against an address homed on ring dst: leaf rotation, ARD
// crossing, level-1 rotation, ARD crossing, remote leaf rotation, and
// the response's re-entry crossing, with the requester stalled
// throughout. It returns the observed latency — unloaded, three
// rotations plus three crossings, 52.5 us on the KSR presets.
func (b *BigMachine) CrossFetch(p *Proc, src, dst int, addr memory.Addr) sim.Time {
	if b.hub == nil || src == dst {
		panic("machine: CrossFetch needs two distinct rings")
	}
	start := p.Now()
	g := newGate(b.rings[src].Engine(), fmt.Sprintf("cross-fetch ring%d<-ring%d", src, dst))
	toHub := b.toHub(src, dst, addr, func() {
		// Response re-enters the source ring through its ARD.
		b.coord.Send(dst, src, b.cfg.Ring.ARDCross, g.fire)
	})
	// The synchronous half — source leaf rotation, hub send, wait for the
	// response — is one continuation chain. The path allocates its gate
	// and messages per call anyway, so its steps are plain closures.
	sp, cell := p.Process(), p.CellID()
	sp.Run(func() {
		b.rings[src].Fabric().AccessThen(sp, cell, (cell+1)%b.leaf, addr, func() {
			toHub()
			g.waitThen(sp)
		})
	})
	lat := p.Now() - start
	b.crossTx[src]++
	b.fetchTx[src]++
	b.crossTime[src] += lat
	if fn := b.rings[src].prof.Charge; fn != nil {
		fn(p.CellID(), prof.PhaseCross, lat)
	}
	return lat
}

// CrossPost sends a fire-and-forget message from p's ring to ring dst:
// fn runs in dst's partition once the full crossing path has been paid.
// The issuing processor continues immediately — the big-machine analogue
// of poststore, used for hierarchical reductions' arrival signals.
func (b *BigMachine) CrossPost(p *Proc, src, dst int, addr memory.Addr, fn func()) {
	if b.hub == nil || src == dst {
		panic("machine: CrossPost needs two distinct rings")
	}
	cell := p.CellID()
	b.rings[src].Fabric().AccessAsync(cell, (cell+1)%b.leaf, addr, b.toHub(src, dst, addr, fn))
	b.crossTx[src]++
}

// Arrivals counts cross-ring arrival signals on one ring's engine: rings
// post increments (via CrossPost), a local process awaits a target
// count. The wait/wake race is closed the same way the directory's
// version numbers close it — Arrive broadcasts under the owning engine's
// control token.
type Arrivals struct {
	c     *sim.Cond
	count int
}

// NewArrivals builds an arrival counter owned by ring's partition.
func (b *BigMachine) NewArrivals(ring int, name string) *Arrivals {
	return &Arrivals{c: sim.NewCond(b.rings[ring].Engine(), name)}
}

// Arrive notes one arrival. It must run in the owning ring's partition —
// typically as a CrossPost fn.
func (a *Arrivals) Arrive() {
	a.count++
	a.c.Broadcast()
}

// Count returns the arrivals noted so far.
func (a *Arrivals) Count() int { return a.count }

// Await parks p until n arrivals have been noted.
func (a *Arrivals) Await(p *sim.Process, n int) {
	for a.count < n {
		a.c.Wait(p)
	}
}
