// Package faults implements deterministic, seed-driven fault injection
// for the simulated machine.
//
// The paper explains KSR-1 scalability in terms of contention on the
// slotted ring and the COMA coherence protocol under ideal conditions; a
// real ALLCACHE machine additionally NACKs and retries requests whose
// directory lookups miss in flight, and degraded ring bandwidth is
// exactly the regime where the paper's knees and crossovers move. This
// package supplies that degraded regime on demand:
//
//   - ring slot loss: a transaction's slot is corrupted on a hop and the
//     packet re-circulates, paying another full rotation;
//   - link degradation: a hop's slot-hold time is multiplied, modelling a
//     link running at reduced bandwidth;
//   - coherence NACKs: a protocol transaction is negatively acknowledged
//     and retried after an exponential backoff in simulated time;
//   - cell stalls: a cell freezes for a fixed interval at pseudo-random
//     times (an OS page-out, a firmware hiccup);
//   - fail-stop: a cell halts permanently at a configured simulated time.
//
// Every draw comes from SplitMix64 streams derived from one seed, with a
// private stream per subsystem (ring, coherence, cells) so that draws in
// one layer never perturb another. Because the simulation engine runs
// exactly one process at a time, draw order is reproducible and a given
// (program, seed) pair always yields the same faults at the same
// simulated times — see docs/FAULTS.md for the determinism argument.
package faults

import "repro/internal/sim"

// Default parameters applied by New when the config leaves them zero.
const (
	DefaultMaxRetries        = 8
	DefaultLinkDegradeFactor = 4.0
	DefaultBackoffBase       = 2 * sim.Microsecond
	DefaultBackoffMax        = 256 * sim.Microsecond
	DefaultCellStallTime     = 50 * sim.Microsecond
)

// Config describes what to inject and how often. The zero value injects
// nothing.
type Config struct {
	// SlotLossRate is the per-hop probability that a ring transaction's
	// slot is lost in transit, forcing the packet to re-circulate for one
	// extra rotation. Consecutive losses of one packet are bounded by
	// MaxRetries.
	SlotLossRate float64

	// LinkDegradeRate is the per-hop probability that a transaction
	// crosses a degraded link, multiplying its slot-hold time by
	// LinkDegradeFactor (default 4).
	LinkDegradeRate   float64
	LinkDegradeFactor float64

	// NACKRate is the per-transaction probability that the coherence
	// protocol NACKs a request, forcing the requester to back off and
	// retry. Consecutive NACKs of one request are bounded by MaxRetries,
	// which keeps every retry loop finite.
	NACKRate float64

	// MaxRetries bounds consecutive injected failures of a single
	// request (default 8). The injector refuses to fail a request more
	// than MaxRetries times in a row, so retry loops always terminate.
	MaxRetries int

	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries: retry n waits roughly BackoffBase<<n (with deterministic
	// jitter), capped at BackoffMax. Both are simulated time.
	BackoffBase sim.Time
	BackoffMax  sim.Time

	// CellStallMean, when positive, makes each cell stall for
	// CellStallTime (default 50us) at pseudo-random times with the given
	// mean interval.
	CellStallMean sim.Time
	CellStallTime sim.Time

	// FailStop maps cell ids to the simulated time at which that cell
	// halts permanently. A fail-stopped cell simply stops executing; any
	// peers synchronizing with it wedge, which the engine reports through
	// DeadlockError.
	FailStop map[int]sim.Time
}

// Uniform returns a Config injecting all three transient transport fault
// classes — slot loss, link degradation, coherence NACKs — at the same
// rate. It is the knob the `ksrsim faults` sweep turns.
func Uniform(rate float64) Config {
	return Config{SlotLossRate: rate, LinkDegradeRate: rate, NACKRate: rate}
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.SlotLossRate > 0 || c.LinkDegradeRate > 0 || c.NACKRate > 0 ||
		c.CellStallMean > 0 || len(c.FailStop) > 0
}

// Stats counts injected faults and the retry work they caused.
type Stats struct {
	SlotLosses   uint64   // ring slots lost (extra rotations paid)
	LinkDegrades uint64   // hops taken at degraded bandwidth
	NACKs        uint64   // coherence transactions negatively acknowledged
	Retries      uint64   // retries issued (one per NACK absorbed)
	BackoffTime  sim.Time // total simulated time spent backing off
	MaxRetryRun  int      // deepest consecutive retry run observed
	CellStalls   uint64   // transient cell stalls taken
	FailStops    uint64   // cells halted permanently
}

// Injector draws faults deterministically. A nil *Injector is valid and
// injects nothing, so fault hooks cost one nil check when disabled.
type Injector struct {
	cfg   Config
	ring  *sim.RNG // slot loss and link degradation draws
	coh   *sim.RNG // NACK and backoff-jitter draws
	cells *sim.RNG // seeds the per-cell stall streams
	stats Stats
}

// New builds an injector for cfg, filling in defaults for zero fields.
// All randomness derives from seed.
func New(cfg Config, seed uint64) *Injector {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.LinkDegradeFactor <= 1 {
		cfg.LinkDegradeFactor = DefaultLinkDegradeFactor
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.CellStallTime <= 0 {
		cfg.CellStallTime = DefaultCellStallTime
	}
	// Offset the seed so that an injector and a machine sharing seed 1 do
	// not draw identical streams.
	root := sim.NewRNG(seed ^ 0xfa177ab1e5eed5)
	return &Injector{
		cfg:   cfg,
		ring:  root.Split(),
		coh:   root.Split(),
		cells: root.Split(),
	}
}

// Stats returns cumulative fault counters. A nil injector reports zeros.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return i.stats
}

// MaxRetries returns the bound on consecutive failures of one request.
func (i *Injector) MaxRetries() int {
	if i == nil {
		return DefaultMaxRetries
	}
	return i.cfg.MaxRetries
}

// SlotLost reports whether a ring hop loses its slot. consecutive is how
// many times this packet has already lost it; past MaxRetries the answer
// is always false, bounding the re-circulation loop.
func (i *Injector) SlotLost(consecutive int) bool {
	if i == nil || i.cfg.SlotLossRate <= 0 || consecutive >= i.cfg.MaxRetries {
		return false
	}
	if i.ring.Float64() >= i.cfg.SlotLossRate {
		return false
	}
	i.stats.SlotLosses++
	return true
}

// DegradedHold returns the slot-hold time for one hop: hold itself, or
// hold scaled by LinkDegradeFactor when the link draw degrades it.
func (i *Injector) DegradedHold(hold sim.Time) sim.Time {
	if i == nil || i.cfg.LinkDegradeRate <= 0 {
		return hold
	}
	if i.ring.Float64() >= i.cfg.LinkDegradeRate {
		return hold
	}
	i.stats.LinkDegrades++
	return sim.Time(float64(hold) * i.cfg.LinkDegradeFactor)
}

// NACK reports whether a coherence transaction is negatively
// acknowledged. attempt is how many NACKs this request has already
// absorbed; once it reaches MaxRetries the answer is always false, so a
// retry loop driven by NACK is finite by construction.
func (i *Injector) NACK(attempt int) bool {
	if i == nil || i.cfg.NACKRate <= 0 || attempt >= i.cfg.MaxRetries {
		return false
	}
	if i.coh.Float64() >= i.cfg.NACKRate {
		return false
	}
	i.stats.NACKs++
	if attempt+1 > i.stats.MaxRetryRun {
		i.stats.MaxRetryRun = attempt + 1
	}
	return true
}

// Backoff returns the simulated-time delay before retry number attempt
// (0-based): exponential in the attempt with deterministic jitter in
// [d/2, d), capped at BackoffMax. The jitter keeps colliding requesters
// from retrying in lockstep and re-colliding forever.
func (i *Injector) Backoff(attempt int) sim.Time {
	if i == nil {
		return 0
	}
	d := i.cfg.BackoffMax
	if attempt < 30 {
		if exp := i.cfg.BackoffBase << uint(attempt); exp < d {
			d = exp
		}
	}
	delay := d/2 + sim.Time(i.coh.Float64()*float64(d-d/2))
	i.stats.Retries++
	i.stats.BackoffTime += delay
	return delay
}

// StallRNG derives a private stall stream for one cell. Streams are
// handed out in call order, so creating cells in id order keeps each
// cell's stall schedule independent of every other subsystem's draws.
func (i *Injector) StallRNG() *sim.RNG {
	if i == nil {
		return nil
	}
	return i.cells.Split()
}

// StallsEnabled reports whether transient cell stalls are configured.
func (i *Injector) StallsEnabled() bool {
	return i != nil && i.cfg.CellStallMean > 0
}

// StallInterval draws the gap to a cell's next stall from its private
// stream: uniform in [mean/2, 3*mean/2), so the mean interval is
// CellStallMean.
func (i *Injector) StallInterval(rng *sim.RNG) sim.Time {
	if i == nil || i.cfg.CellStallMean <= 0 || rng == nil {
		return 0
	}
	m := i.cfg.CellStallMean
	return m/2 + sim.Time(rng.Float64()*float64(m))
}

// StallTime returns the duration of one transient stall and counts it.
func (i *Injector) StallTime() sim.Time {
	if i == nil {
		return 0
	}
	i.stats.CellStalls++
	return i.cfg.CellStallTime
}

// FailStopAt returns the simulated time at which cell halts, or 0 when
// it never does.
func (i *Injector) FailStopAt(cell int) sim.Time {
	if i == nil {
		return 0
	}
	return i.cfg.FailStop[cell]
}

// NoteFailStop records that a cell halted.
func (i *Injector) NoteFailStop() {
	if i != nil {
		i.stats.FailStops++
	}
}
