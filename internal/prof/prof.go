// Package prof is ksrsim's simulated-time profiler: per-cell attribution
// of simulated nanoseconds to phases — computation, memory stall, lock
// wait, barrier wait, cross-ring transactions, NACK backoff — the
// decomposition the paper uses to explain every scalability curve.
//
// The design follows internal/obs: zero overhead when disabled. The
// machine holds a prof.Hooks value (all-nil when unprofiled) and every
// charge point costs one function-pointer load and one predictable
// branch; the nil-checked-local call shape is machine-enforced by
// ksrlint/hookcheck. One Recorder observes one machine (one engine, so
// no locking is needed); a Session merges recorders sorted by label,
// which makes profile output byte-identical regardless of how many
// OS threads drove the sweep (-parallel) or the PDES windows
// (-partitions).
//
// Attribution model: plain cycle charges carry their natural phase
// (compute for CEU work, memory for cache-hit and allocation cycles);
// fabric and coherence latencies arrive through Access; synchronization
// algorithms open spans (lock, barrier) that re-attribute everything
// charged inside them, outermost span winning; the coherence directory
// reports NACK backoff sleeps through DirHooks so they land in their own
// phase, and the enclosing Access subtracts them to avoid double
// counting.
package prof

import (
	"sort"
	"sync"

	"repro/internal/sim"
)

// Phase is one row of the profile's time decomposition.
type Phase int

// The phase taxonomy, in report order.
const (
	// PhaseCompute is CEU computation: Compute calls, instruction issue
	// slots, and spin-poll gaps on cacheless machines.
	PhaseCompute Phase = iota
	// PhaseMemory is memory stall: cache-hit cycles, allocation
	// overheads, and fabric/coherence transaction latency.
	PhaseMemory
	// PhaseLock is time inside a lock acquire/release span.
	PhaseLock
	// PhaseBarrier is time inside a barrier wait span.
	PhaseBarrier
	// PhaseCross is requester-observed cross-ring transaction latency on
	// a big machine.
	PhaseCross
	// PhaseBackoff is NACK exponential-backoff sleep in the coherence
	// protocol.
	PhaseBackoff
	// PhaseOther is unclassified wait: spins on flag words outside any
	// synchronization span.
	PhaseOther

	// NumPhases is the number of real phases (PhaseNone excluded).
	NumPhases = iota
)

// PhaseNone is the span sentinel: no re-attribution active.
const PhaseNone Phase = -1

var phaseNames = [NumPhases]string{
	"compute", "memory", "lock", "barrier", "cross", "backoff", "other",
}

func (ph Phase) String() string {
	if ph < 0 || ph >= NumPhases {
		return "none"
	}
	return phaseNames[ph]
}

// Hooks is the machine-side charge surface: nil-checked function
// pointers held by value on the machine, so the unprofiled path costs
// one branch per charge point (the same contract as sim.Hooks).
type Hooks struct {
	// Charge attributes d of simulated time on cell to ph (subject to
	// span re-attribution).
	Charge func(cell int, ph Phase, d sim.Time)
	// Access attributes a fabric/coherence transaction latency,
	// subtracting backoff time already charged through DirHooks.Backoff.
	Access func(cell int, ph Phase, lat sim.Time)
	// SpanBegin opens a re-attribution span on cell and returns the
	// token SpanEnd needs. The outermost span wins.
	SpanBegin func(cell int, ph Phase) Phase
	// SpanEnd closes the span opened with the returned token.
	SpanEnd func(cell int, prev Phase)
}

// DirHooks is the coherence directory's charge surface: the directory
// holds it by value and reports per-NACK backoff sleeps.
type DirHooks struct {
	// Backoff attributes one NACK backoff sleep of d on cell.
	Backoff func(cell int, d sim.Time)
}

// Session owns the recorders of one profiled invocation. Methods on a
// nil *Session are safe: Recorder returns nil, so an unprofiled run
// costs nothing.
type Session struct {
	mu   sync.Mutex
	recs []*Recorder
}

// NewSession creates an empty profiling session.
func NewSession() *Session { return &Session{} }

// Recorder creates and registers a recorder for one machine. The label
// must uniquely identify the machine within the session (sweeps use the
// point identity, big machines add a /ringNN suffix per partition);
// merged output is sorted by label, which keeps profiles byte-identical
// across worker counts. Returns nil when s is nil.
func (s *Session) Recorder(label string) *Recorder {
	if s == nil {
		return nil
	}
	r := &Recorder{sess: s, label: label}
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
	return r
}

// sorted returns the session's recorders ordered by label.
func (s *Session) sorted() []*Recorder {
	s.mu.Lock()
	recs := append([]*Recorder(nil), s.recs...)
	s.mu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].label < recs[j].label })
	return recs
}

// cellProf is one cell's accumulation state.
type cellProf struct {
	phase   [NumPhases]sim.Time
	span    Phase    // active re-attribution span, PhaseNone when none
	pending sim.Time // backoff charged but not yet subtracted from an Access
	touched bool
}

// Recorder accumulates one machine's per-cell phase times. One machine
// runs under one engine's control token, so no locking is needed;
// distinct machines (and distinct big-machine rings) get distinct
// recorders.
type Recorder struct {
	sess  *Session
	label string
	cells []cellProf
}

// cell returns cell id's accumulator, growing the dense slice on first
// touch.
func (r *Recorder) cell(id int) *cellProf {
	for id >= len(r.cells) {
		r.cells = append(r.cells, cellProf{span: PhaseNone})
	}
	c := &r.cells[id]
	c.touched = true
	return c
}

func (r *Recorder) charge(cell int, ph Phase, d sim.Time) {
	if d <= 0 {
		return
	}
	c := r.cell(cell)
	if c.span != PhaseNone {
		ph = c.span
	}
	c.phase[ph] += d
}

func (r *Recorder) access(cell int, ph Phase, lat sim.Time) {
	c := r.cell(cell)
	lat -= c.pending
	c.pending = 0
	if lat <= 0 {
		return
	}
	if c.span != PhaseNone {
		ph = c.span
	}
	c.phase[ph] += lat
}

func (r *Recorder) backoff(cell int, d sim.Time) {
	if d <= 0 {
		return
	}
	// Backoff keeps its own row even inside a span: the taxonomy exists
	// to make retry storms visible. The pending amount is subtracted
	// from the enclosing Access so the total stays exact.
	c := r.cell(cell)
	c.phase[PhaseBackoff] += d
	c.pending += d
}

func (r *Recorder) spanBegin(cell int, ph Phase) Phase {
	c := r.cell(cell)
	prev := c.span
	if prev == PhaseNone {
		c.span = ph
	}
	return prev
}

func (r *Recorder) spanEnd(cell int, prev Phase) {
	if prev == PhaseNone {
		r.cell(cell).span = PhaseNone
	}
}

// MachineHooks builds the charge hook set for this recorder, or nil
// when r is nil — the machine then keeps its zero-valued (disarmed)
// Hooks.
func (r *Recorder) MachineHooks() *Hooks {
	if r == nil {
		return nil
	}
	return &Hooks{
		Charge:    r.charge,
		Access:    r.access,
		SpanBegin: r.spanBegin,
		SpanEnd:   r.spanEnd,
	}
}

// DirectoryHooks builds the coherence-directory hook set, or nil when r
// is nil.
func (r *Recorder) DirectoryHooks() *DirHooks {
	if r == nil {
		return nil
	}
	return &DirHooks{Backoff: r.backoff}
}

// CellRow is one (machine label, cell) row of the merged profile.
type CellRow struct {
	Label string
	Cell  int
	Phase [NumPhases]sim.Time
	Total sim.Time
}

// Rows returns every touched cell's accumulated phase times, sorted by
// (label, cell) — the canonical order all exports derive from.
func (s *Session) Rows() []CellRow {
	if s == nil {
		return nil
	}
	var rows []CellRow
	for _, r := range s.sorted() {
		for id := range r.cells {
			c := &r.cells[id]
			if !c.touched {
				continue
			}
			row := CellRow{Label: r.label, Cell: id, Phase: c.phase}
			for _, d := range c.phase {
				row.Total += d
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PhaseTotals sums every row into one per-phase decomposition.
func (s *Session) PhaseTotals() (totals [NumPhases]sim.Time, total sim.Time) {
	for _, row := range s.Rows() {
		for ph, d := range row.Phase {
			totals[ph] += d
		}
		total += row.Total
	}
	return totals, total
}
