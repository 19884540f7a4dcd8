package fabric

import (
	"fmt"
	"math/bits"

	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ButterflyConfig describes a BBN-Butterfly-style multistage
// interconnection network: log2(N) switch stages between processors and
// memory modules, parallel paths to distinct modules, contention at each
// memory module, and — crucially for the paper's comparison — no hardware
// coherent caches, so every shared access crosses the network to the
// address's home module.
type ButterflyConfig struct {
	Cells   int
	HopTime sim.Time // per-switch-stage latency
	MemTime sim.Time // memory module service time per access
}

// DefaultButterflyConfig models a Butterfly-class MIN with 0.5 us per
// stage and 1 us of memory service, giving remote latencies in the same
// few-microsecond regime as the KSR ring.
func DefaultButterflyConfig(cells int) ButterflyConfig {
	return ButterflyConfig{Cells: cells, HopTime: 500, MemTime: 1000}
}

// Butterfly is a multistage network with one service port per memory
// module. Distinct destination modules are reached over disjoint paths
// (the "parallel communication paths" the paper credits the Butterfly
// with); a shared destination serializes at the module.
type Butterfly struct {
	cfg    ButterflyConfig
	eng    *sim.Engine
	stages int
	mods   []*sim.Resource
	trk    tracker
	rec    *obs.Recorder // nil = no tracing
	txs    []*bflyTx     // per-process synchronous transactions, by process id

	freeAsync *bflyAsync // pooled async transaction records
}

// bflyTx is one process's synchronous butterfly transaction as a chain of
// continuation steps; like ringTx, one record per process.
type bflyTx struct {
	bf    *Butterfly
	p     *sim.Process
	done  func()
	src   int
	mod   int
	start sim.Time
	wait  sim.Time

	arrivedFn  func()
	grantedFn  func(sim.Time)
	servedFn   func()
	returnedFn func()
}

// NewButterfly builds a butterfly fabric with one memory module per cell.
func NewButterfly(e *sim.Engine, cfg ButterflyConfig) *Butterfly {
	if cfg.Cells < 1 {
		panic("fabric: butterfly needs at least one cell")
	}
	stages := bits.Len(uint(cfg.Cells - 1)) // ceil(log2(Cells)), 0 for 1 cell
	if stages == 0 {
		stages = 1
	}
	bf := &Butterfly{cfg: cfg, eng: e, stages: stages}
	for i := 0; i < cfg.Cells; i++ {
		bf.mods = append(bf.mods, sim.NewResource(e, fmt.Sprintf("mem%d", i), 1))
	}
	return bf
}

// Nodes implements Fabric.
func (bf *Butterfly) Nodes() int { return bf.cfg.Cells }

// HomeModule returns the memory module that owns addr (block-interleaved
// by sub-page, as on the real machine).
func (bf *Butterfly) HomeModule(addr memory.Addr) int {
	return int(uint64(addr.SubPage()) % uint64(bf.cfg.Cells))
}

// SetObs implements Fabric.
func (bf *Butterfly) SetObs(rec *obs.Recorder) {
	bf.rec = nil
	if rec.Enabled(obs.CatRing) {
		bf.rec = rec
	}
}

// Access implements Fabric: AccessThen run to completion.
func (bf *Butterfly) Access(p *sim.Process, src, dst int, addr memory.Addr) sim.Time {
	start := bf.eng.Now()
	p.Run(func() { bf.AccessThen(p, src, dst, addr, nil) })
	return bf.eng.Now() - start
}

// AccessThen implements Fabric: traverse the MIN, queue for the home
// module, and take the response path back. dst is ignored: on a NUMA
// machine without coherent caches the responder is always the home
// module of addr.
//
//ksr:hotpath
func (bf *Butterfly) AccessThen(p *sim.Process, src, dst int, addr memory.Addr, done func()) {
	t := bf.tx(p)
	t.start = bf.eng.Now()
	bf.trk.begin()
	t.src, t.mod, t.done = src, bf.HomeModule(addr), done
	p.SleepThen(sim.Time(bf.stages)*bf.cfg.HopTime, t.arrivedFn)
}

// tx returns p's transaction record.
func (bf *Butterfly) tx(p *sim.Process) *bflyTx {
	if id := p.ID(); id < len(bf.txs) && bf.txs[id] != nil {
		return bf.txs[id]
	}
	return bf.newTx(p)
}

// newTx creates p's transaction record on its first synchronous
// transaction; every later one reuses it.
//
//ksr:coldpath once per process
func (bf *Butterfly) newTx(p *sim.Process) *bflyTx {
	for len(bf.txs) <= p.ID() {
		bf.txs = append(bf.txs, nil)
	}
	t := &bflyTx{bf: bf, p: p}
	t.arrivedFn, t.grantedFn, t.servedFn, t.returnedFn = t.arrived, t.granted, t.served, t.returned
	bf.txs[p.ID()] = t
	return t
}

// arrived queues the request at its home module.
//
//ksr:hotpath
func (t *bflyTx) arrived() {
	t.bf.mods[t.mod].AcquireThen(t.p, t.grantedFn)
}

// granted holds the module for one memory access.
//
//ksr:hotpath
func (t *bflyTx) granted(wait sim.Time) {
	t.wait = wait
	t.p.SleepThen(t.bf.cfg.MemTime, t.servedFn)
}

// served frees the module and sends the response back through the MIN.
//
//ksr:hotpath
func (t *bflyTx) served() {
	bf := t.bf
	bf.mods[t.mod].Release()
	t.p.SleepThen(sim.Time(bf.stages)*bf.cfg.HopTime, t.returnedFn)
}

// returned completes the transaction.
//
//ksr:hotpath
func (t *bflyTx) returned() {
	bf := t.bf
	bf.trk.end(bf.eng.Now()-t.start, t.wait, true)
	if bf.rec != nil {
		bf.traceTx(t.src, t.mod, t.start, t.wait)
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
func (bf *Butterfly) traceTx(src, mod int, start, wait sim.Time) {
	bf.rec.CompleteAt(obs.CatRing, src, "bfly.tx", start, bf.eng.Now(),
		obs.Arg{Key: "mod", Val: int64(mod)}, obs.Arg{Key: "wait_ns", Val: int64(wait)})
}

// bflyAsync is one fire-and-forget butterfly transaction, pooled on the
// butterfly like ringAsync.
type bflyAsync struct {
	bf   *Butterfly
	next *bflyAsync // free list
	done func()
	mod  *sim.Resource

	arrivedFn  func()
	grantedFn  func()
	servedFn   func()
	returnedFn func()
}

// AccessAsync implements Fabric.
//
//ksr:hotpath
func (bf *Butterfly) AccessAsync(src, dst int, addr memory.Addr, done func()) {
	bf.trk.begin()
	t := bf.freeAsync
	if t == nil {
		t = bf.newAsync()
	} else {
		bf.freeAsync = t.next
	}
	t.mod, t.done = bf.mods[bf.HomeModule(addr)], done
	bf.eng.Schedule(sim.Time(bf.stages)*bf.cfg.HopTime, t.arrivedFn)
}

// newAsync creates an async transaction record when every pooled one is
// in flight.
//
//ksr:coldpath once per concurrent async transaction at the peak
func (bf *Butterfly) newAsync() *bflyAsync {
	t := &bflyAsync{bf: bf}
	t.arrivedFn, t.grantedFn, t.servedFn, t.returnedFn = t.arrived, t.granted, t.served, t.returned
	return t
}

// arrived queues the request at its home module.
//
//ksr:hotpath
func (t *bflyAsync) arrived() {
	t.mod.AcquireAsync(t.grantedFn)
}

// granted holds the module for one memory access.
//
//ksr:hotpath
func (t *bflyAsync) granted() {
	t.bf.eng.Schedule(t.bf.cfg.MemTime, t.servedFn)
}

// served frees the module and sends the response back through the MIN.
//
//ksr:hotpath
func (t *bflyAsync) served() {
	bf := t.bf
	t.mod.Release()
	bf.eng.Schedule(sim.Time(bf.stages)*bf.cfg.HopTime, t.returnedFn)
}

// returned completes the transaction, returning the record to the pool
// before the callback runs.
//
//ksr:hotpath
func (t *bflyAsync) returned() {
	bf := t.bf
	bf.trk.end(0, 0, false)
	done := t.done
	t.done, t.mod = nil, nil
	t.next = bf.freeAsync
	bf.freeAsync = t
	if done != nil {
		done()
	}
}

// Stats implements Fabric.
func (bf *Butterfly) Stats() Stats { return bf.trk.stats }

// InFlight implements Fabric.
func (bf *Butterfly) InFlight() int { return bf.trk.inFlight }
