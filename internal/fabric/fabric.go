// Package fabric models the interconnection networks of the machines in
// the study: the KSR-1/KSR-2 slotted pipelined unidirectional ring (one- or
// two-level), a Sequent-Symmetry-style shared bus, and a BBN-Butterfly-style
// multistage interconnection network.
//
// All three implement Fabric, so the synchronization algorithms and kernels
// run unchanged on every machine — which is exactly the comparison Section
// 3.2.3 of the paper makes.
//
// A fabric transaction is one coherence-protocol round trip: the requesting
// cell src issues a packet for addr, the cell dst responds, and any
// invalidations happen as the packet passes other cells (free on a
// broadcast medium such as the ring or bus). The fabric charges the
// requester the transaction latency, including any queueing for finite
// network capacity.
package fabric

import (
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fabric is an interconnection network connecting the cells of a machine.
type Fabric interface {
	// Nodes returns the number of cells the fabric connects.
	Nodes() int

	// Access performs one transaction from cell src, answered by cell dst,
	// for the sub-page containing addr. It blocks p for the full
	// transaction latency and returns that latency. It is AccessThen
	// run to completion (sim.Process.Run).
	Access(p *sim.Process, src, dst int, addr memory.Addr) sim.Time

	// AccessThen is the continuation form of Access, for use inside p's
	// sim Run step: the same transaction, with the same events, as a
	// chain of steps that calls done (nil ends the chain) on completion.
	AccessThen(p *sim.Process, src, dst int, addr memory.Addr, done func())

	// AccessAsync performs a transaction that no process waits on (the
	// KSR-1 poststore: the issuing processor continues while the updated
	// sub-page circulates). done, if non-nil, runs when the transaction
	// completes.
	AccessAsync(src, dst int, addr memory.Addr, done func())

	// Stats returns cumulative counters.
	Stats() Stats

	// InFlight returns the number of transactions currently in
	// progress (a gauge).
	InFlight() int

	// SetObs attaches a trace recorder; the fabric emits transaction
	// slices, per-hop slot occupancy, and link-occupancy counters when
	// the recorder has the ring category enabled. nil detaches.
	SetObs(rec *obs.Recorder)
}

// Stats holds cumulative fabric counters.
type Stats struct {
	Transactions uint64   // completed transactions
	TotalLatency sim.Time // sum of full transaction latencies (sync only)
	TotalWait    sim.Time // portion of TotalLatency spent queued for capacity
	MaxInFlight  int      // high-water mark of concurrent transactions
}

// MeanLatency returns the average synchronous transaction latency.
func (s Stats) MeanLatency() sim.Time {
	if s.Transactions == 0 {
		return 0
	}
	return s.TotalLatency / sim.Time(s.Transactions)
}

// tracker maintains the shared counters for fabric implementations.
type tracker struct {
	stats    Stats
	inFlight int
}

func (t *tracker) begin() {
	t.inFlight++
	if t.inFlight > t.stats.MaxInFlight {
		t.stats.MaxInFlight = t.inFlight
	}
}

func (t *tracker) end(latency, wait sim.Time, sync bool) {
	t.inFlight--
	t.stats.Transactions++
	if sync {
		t.stats.TotalLatency += latency
		t.stats.TotalWait += wait
	}
}
