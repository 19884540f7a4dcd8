package fabric

import (
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sim"
)

// BusConfig describes a Sequent-Symmetry-style shared bus: every
// transaction is serialized on a single broadcast medium, but snooping
// caches make spinning local. Its one distinguishing property for the
// paper's Section 3.2.3 comparison is the absence of parallel
// communication paths.
type BusConfig struct {
	Cells   int
	BusTime sim.Time // occupancy of one bus transaction
}

// DefaultBusConfig models a Symmetry-class bus: a transaction costs about
// 1 us and the bus is a single shared resource.
func DefaultBusConfig(cells int) BusConfig {
	return BusConfig{Cells: cells, BusTime: 1000}
}

// Bus is a single shared split-less bus.
type Bus struct {
	cfg BusConfig
	eng *sim.Engine
	bus *sim.Resource
	trk tracker
	rec *obs.Recorder // nil = no tracing
	txs []*busTx      // per-process synchronous transactions, by process id
}

// busTx is one process's synchronous bus transaction as a chain of
// continuation steps; like ringTx, one record per process.
type busTx struct {
	b     *Bus
	p     *sim.Process
	done  func()
	src   int
	dst   int
	start sim.Time
	wait  sim.Time

	grantedFn func(sim.Time)
	heldFn    func()
}

// NewBus builds a bus fabric.
func NewBus(e *sim.Engine, cfg BusConfig) *Bus {
	if cfg.Cells < 1 {
		panic("fabric: bus needs at least one cell")
	}
	return &Bus{cfg: cfg, eng: e, bus: sim.NewResource(e, "bus", 1)}
}

// Nodes implements Fabric.
func (b *Bus) Nodes() int { return b.cfg.Cells }

// SetObs implements Fabric.
func (b *Bus) SetObs(rec *obs.Recorder) {
	b.rec = nil
	if rec.Enabled(obs.CatRing) {
		b.rec = rec
	}
}

// Access implements Fabric: AccessThen run to completion.
func (b *Bus) Access(p *sim.Process, src, dst int, addr memory.Addr) sim.Time {
	start := b.eng.Now()
	p.Run(func() { b.AccessThen(p, src, dst, addr, nil) })
	return b.eng.Now() - start
}

// AccessThen implements Fabric: wait for the bus, hold it for one
// transaction.
//
//ksr:hotpath
func (b *Bus) AccessThen(p *sim.Process, src, dst int, addr memory.Addr, done func()) {
	t := b.tx(p)
	t.start = b.eng.Now()
	b.trk.begin()
	t.src, t.dst, t.done = src, dst, done
	b.bus.AcquireThen(p, t.grantedFn)
}

// tx returns p's transaction record.
func (b *Bus) tx(p *sim.Process) *busTx {
	if id := p.ID(); id < len(b.txs) && b.txs[id] != nil {
		return b.txs[id]
	}
	return b.newTx(p)
}

// newTx creates p's transaction record on its first synchronous
// transaction; every later one reuses it.
//
//ksr:coldpath once per process
func (b *Bus) newTx(p *sim.Process) *busTx {
	for len(b.txs) <= p.ID() {
		b.txs = append(b.txs, nil)
	}
	t := &busTx{b: b, p: p}
	t.grantedFn, t.heldFn = t.granted, t.held
	b.txs[p.ID()] = t
	return t
}

// granted holds the bus for one transaction.
//
//ksr:hotpath
func (t *busTx) granted(wait sim.Time) {
	t.wait = wait
	t.p.SleepThen(t.b.cfg.BusTime, t.heldFn)
}

// held releases the bus and completes the transaction.
//
//ksr:hotpath
func (t *busTx) held() {
	b := t.b
	b.bus.Release()
	b.trk.end(b.eng.Now()-t.start, t.wait, true)
	if b.rec != nil {
		b.traceTx(t.src, t.dst, t.start, t.wait)
	}
	done := t.done
	t.done = nil
	if done != nil {
		done()
	}
}

// traceTx records one synchronous transaction.
//
//ksr:coldpath tracing only: reached when the ring category is armed
func (b *Bus) traceTx(src, dst int, start, wait sim.Time) {
	b.rec.CompleteAt(obs.CatRing, src, "bus.tx", start, b.eng.Now(),
		obs.Arg{Key: "dst", Val: int64(dst)}, obs.Arg{Key: "wait_ns", Val: int64(wait)})
}

// AccessAsync implements Fabric.
func (b *Bus) AccessAsync(src, dst int, addr memory.Addr, done func()) {
	b.trk.begin()
	b.bus.AcquireAsync(func() {
		b.eng.Schedule(b.cfg.BusTime, func() {
			b.bus.Release()
			b.trk.end(0, 0, false)
			if done != nil {
				done()
			}
		})
	})
}

// Stats implements Fabric.
func (b *Bus) Stats() Stats { return b.trk.stats }

// InFlight implements Fabric.
func (b *Bus) InFlight() int { return b.trk.inFlight }
