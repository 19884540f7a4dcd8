package workload

import (
	"fmt"
	"math"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

// TraceSchema versions the recorded-trace format.
const TraceSchema = "ksrsim/wltrace/v1"

// OpKind enumerates the trace operations. Values are part of the wire
// format — append only.
type OpKind uint8

const (
	// OpCompute charges A local cycles.
	OpCompute OpKind = iota + 1
	// OpRead / OpWrite access the word at address A.
	OpRead
	OpWrite
	// OpReadRange / OpWriteRange access B words from base A with
	// stride C bytes.
	OpReadRange
	OpWriteRange
	// OpLockAcq / OpLockRel operate lock A.
	OpLockAcq
	OpLockRel
	// OpBarrier waits on barrier A.
	OpBarrier
)

// opArity holds each kind's operand count (wire format), indexed by
// kind; every byte value is an index, and unknown kinds have none.
var opArity = [256]int{
	OpCompute: 1, OpRead: 1, OpWrite: 1,
	OpReadRange: 3, OpWriteRange: 3,
	OpLockAcq: 1, OpLockRel: 1, OpBarrier: 1,
}

// Op is one interface-level operation in a slot's stream.
type Op struct {
	Kind    OpKind
	A, B, C int64
}

// RegionDef records one data-region allocation. Regions are allocated
// first and in order on the fresh machine, so Base is reproducible;
// Execute asserts it, catching any drift between the recorder's layout
// and the replayer's.
type RegionDef struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	Base  uint64 `json:"base"`
}

// LockDef records one lock instance by algorithm.
type LockDef struct {
	Name string `json:"name"`
	Algo string `json:"algo"`
}

// BarrierDef records one barrier instance: algorithm and participant
// count (ksync barriers are sized at construction).
type BarrierDef struct {
	Name  string `json:"name"`
	Algo  string `json:"algo"`
	Procs int    `json:"procs"`
}

// SlotDef pins one operation stream to a cell. Ops is the stream length,
// cross-checked when a trace is loaded.
type SlotDef struct {
	Tenant string `json:"tenant"`
	Cell   int    `json:"cell"`
	Ops    int    `json:"ops"`
}

// Header is the canonical-JSON first frame of a trace file: everything
// needed to re-drive a machine except the op streams themselves.
type Header struct {
	Schema    string       `json:"schema"`
	Spec      Spec         `json:"spec"`
	Regions   []RegionDef  `json:"regions"`
	Locks     []LockDef    `json:"locks"`
	Barriers  []BarrierDef `json:"barriers"`
	Slots     []SlotDef    `json:"slots"`
	Perturbed []string     `json:"perturbed,omitempty"`
}

// Trace is a compiled (or recorded, or loaded) workload: the header plus
// one op stream per slot.
type Trace struct {
	Header Header
	Slots  [][]Op
}

// subseed derives the per-(tenant, slot, phase) generator seed from the
// spec seed with SplitMix-style mixing, so streams are independent of
// each other and of tenant ordering changes elsewhere in the spec.
func subseed(seed uint64, parts ...uint64) uint64 {
	z := seed
	for _, p := range parts {
		z ^= p + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// Compile turns a validated spec into a deterministic trace: it lays out
// the data regions on a throwaway address space (recording the bases the
// machine will reproduce), collects the lock and barrier instances each
// phase needs, and generates every slot's operation stream from seeded
// RNGs. run = Compile + Execute; record additionally saves the trace;
// replay loads and Executes it — so record→replay fidelity holds by
// construction.
func Compile(s Spec) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := &Trace{Header: Header{Schema: TraceSchema, Spec: s}}
	// Layout pass: data regions first (locks and barriers allocate after
	// them at Execute time, so a lock/barrier swap perturbation never
	// moves data addresses).
	space := memory.NewSpace()
	regionBase := make(map[string]memory.Addr) // region name -> base
	lockID := make(map[string]int)             // "tenant/phase" -> lock index
	barrierID := make(map[string]int)
	for _, tn := range s.Tenants {
		for _, ph := range tn.Phases {
			name := tn.Name + "/" + ph.Name
			bytes := regionBytes(tn, ph)
			r := space.Alloc(name, bytes)
			regionBase[name] = r.Base
			t.Header.Regions = append(t.Header.Regions, RegionDef{Name: name, Bytes: bytes, Base: uint64(r.Base)})
			if ph.Lock != "" {
				lockID[name] = len(t.Header.Locks)
				t.Header.Locks = append(t.Header.Locks, LockDef{Name: name, Algo: ph.Lock})
			}
			if ph.Barrier != "" {
				barrierID[name] = len(t.Header.Barriers)
				t.Header.Barriers = append(t.Header.Barriers, BarrierDef{Name: name, Algo: ph.Barrier, Procs: tn.Procs})
			}
		}
	}
	// Generation pass: one stream per (tenant, slot).
	for ti, tn := range s.Tenants {
		for slot := 0; slot < tn.Procs; slot++ {
			var ops []Op
			if tn.Arrival.Process == ArrivalStaggered && slot > 0 {
				ops = append(ops, Op{Kind: OpCompute, A: int64(slot) * tn.Arrival.GapCycles})
			}
			for pi, ph := range tn.Phases {
				name := tn.Name + "/" + ph.Name
				g := slotGen{
					tenant: tn, phase: ph, slot: slot,
					base: regionBase[name],
					rng:  sim.NewRNG(subseed(s.Seed, uint64(ti), uint64(slot), uint64(pi))),
				}
				if id, ok := lockID[name]; ok {
					g.lock = int64(id)
				} else {
					g.lock = -1
				}
				if id, ok := barrierID[name]; ok {
					g.barrier = int64(id)
				} else {
					g.barrier = -1
				}
				ops = g.generate(ops)
			}
			t.Header.Slots = append(t.Header.Slots, SlotDef{Tenant: tn.Name, Cell: tn.FirstCell + slot, Ops: len(ops)})
			t.Slots = append(t.Slots, ops)
		}
	}
	return t, nil
}

// regionBytes sizes a phase's data region by sharing degree.
func regionBytes(t Tenant, ph Phase) int64 {
	switch ph.Sharing {
	case SharingPrivate:
		return ph.WorkingSetBytes * int64(t.Procs)
	case SharingShared:
		if ph.Pattern == PatternPipeline || ph.Pattern == PatternStencil {
			// Segmented: one WorkingSetBytes segment per proc.
			return ph.WorkingSetBytes * int64(t.Procs)
		}
		return ph.WorkingSetBytes
	case SharingFalseSharing:
		// One word per proc, deliberately packed so neighbors share
		// coherence units.
		return int64(t.Procs) * memory.WordSize
	case SharingHotLine:
		return memory.WordSize
	}
	panic("workload: unreachable sharing " + ph.Sharing)
}

// slotGen generates one (slot, phase) op stream.
type slotGen struct {
	tenant        Tenant
	phase         Phase
	slot          int
	base          memory.Addr
	rng           *sim.RNG
	lock, barrier int64 // ids, -1 when unused
}

func (g *slotGen) generate(ops []Op) []Op {
	ph := g.phase
	stride := ph.StrideBytes
	if stride == 0 {
		stride = memory.WordSize
	}
	for iter := 0; iter < ph.Iterations; iter++ {
		if g.tenant.Arrival.Process == ArrivalBursty && iter > 0 && iter%g.tenant.Arrival.BurstIters == 0 {
			ops = append(ops, Op{Kind: OpCompute, A: g.tenant.Arrival.GapCycles})
		}
		if ph.ComputePerIter > 0 {
			ops = append(ops, Op{Kind: OpCompute, A: ph.ComputePerIter})
		}
		switch ph.Pattern {
		case PatternUniform:
			ops = g.uniformIter(ops, stride)
		case PatternPipeline:
			ops = g.pipelineIter(ops, stride)
		case PatternStencil:
			ops = g.stencilIter(ops, stride)
		}
		if g.lock >= 0 && iter%ph.LockEvery == 0 {
			ops = append(ops, Op{Kind: OpLockAcq, A: g.lock})
			if ph.LockHoldOps > 0 {
				ops = append(ops, Op{Kind: OpCompute, A: ph.LockHoldOps})
			}
			ops = append(ops, Op{Kind: OpLockRel, A: g.lock})
		}
		if g.barrier >= 0 && ph.Pattern == PatternUniform && iter%ph.BarrierEvery == 0 {
			ops = append(ops, Op{Kind: OpBarrier, A: g.barrier})
		}
	}
	return ops
}

// window returns the slot's [base, words) accessible window for uniform
// accesses under the phase's sharing degree.
func (g *slotGen) window() (memory.Addr, int64) {
	ph := g.phase
	switch ph.Sharing {
	case SharingPrivate:
		return g.base + memory.Addr(int64(g.slot)*ph.WorkingSetBytes), ph.WorkingSetBytes / memory.WordSize
	case SharingShared:
		return g.base, ph.WorkingSetBytes / memory.WordSize
	case SharingFalseSharing:
		return g.base + memory.Addr(int64(g.slot)*memory.WordSize), 1
	case SharingHotLine:
		return g.base, 1
	}
	panic("workload: unreachable sharing " + ph.Sharing)
}

func (g *slotGen) uniformIter(ops []Op, stride int64) []Op {
	base, words := g.window()
	strideWords := stride / memory.WordSize
	slots := (words + strideWords - 1) / strideWords
	for a := 0; a < g.phase.AccessesPerIter; a++ {
		addr := base
		if slots > 1 {
			addr += memory.Addr(int64(g.rng.Intn(int(slots))) * stride)
		}
		kind := OpWrite
		if g.rng.Intn(100) < g.phase.ReadPct {
			kind = OpRead
		}
		ops = append(ops, Op{Kind: kind, A: int64(addr)})
	}
	return ops
}

// pipelineIter is the producer-consumer round: write the slot's own
// segment, barrier, read the predecessor's freshly written segment, and
// barrier again so no producer overwrites a segment still being read.
func (g *slotGen) pipelineIter(ops []Op, stride int64) []Op {
	seg := g.phase.WorkingSetBytes
	own := g.base + memory.Addr(int64(g.slot)*seg)
	prev := g.base + memory.Addr(int64((g.slot+g.tenant.Procs-1)%g.tenant.Procs)*seg)
	count := countFor(seg, stride)
	ops = append(ops,
		Op{Kind: OpWriteRange, A: int64(own), B: count, C: stride},
		Op{Kind: OpBarrier, A: g.barrier},
		Op{Kind: OpReadRange, A: int64(prev), B: count, C: stride},
		Op{Kind: OpBarrier, A: g.barrier},
	)
	return ops
}

// stencilIter is the halo-exchange round: read the slot's own segment
// plus boundary words of both neighbors, write the own segment back,
// barrier.
func (g *slotGen) stencilIter(ops []Op, stride int64) []Op {
	seg := g.phase.WorkingSetBytes
	n := g.tenant.Procs
	own := g.base + memory.Addr(int64(g.slot)*seg)
	left := g.base + memory.Addr(int64((g.slot+n-1)%n)*seg)
	right := g.base + memory.Addr(int64((g.slot+1)%n)*seg)
	count := countFor(seg, stride)
	ops = append(ops,
		Op{Kind: OpReadRange, A: int64(own), B: count, C: stride},
		// Halo: last word of the left neighbor, first word of the right.
		Op{Kind: OpRead, A: int64(left + memory.Addr(seg-memory.WordSize))},
		Op{Kind: OpRead, A: int64(right)},
		Op{Kind: OpWriteRange, A: int64(own), B: count, C: stride},
		Op{Kind: OpBarrier, A: g.barrier},
	)
	return ops
}

// countFor is the number of strided word accesses covering size bytes.
func countFor(size, stride int64) int64 {
	return (size + stride - 1) / stride
}

// ExecOptions carries the observability attachments for Execute.
type ExecOptions struct {
	Obs  *obs.Recorder
	Prof *prof.Recorder
}

// runBarrier adapts ksync barriers and the flag barrier to one
// interpreter-facing interface; ep is the calling slot's local episode
// counter for this barrier (ksync barriers keep their own state).
type runBarrier interface {
	wait(p *machine.Proc, ep *uint64)
}

type ksyncBarrier struct{ b ksync.Barrier }

func (k ksyncBarrier) wait(p *machine.Proc, _ *uint64) { k.b.Wait(p) }

// flagBarrier is a central-counter sense-reversal barrier whose shared
// state is plain memory words, valid for any participant set (ksync
// barriers index per-participant arrays by cell id and require cells
// 0..P-1). The last arrival resets the counter and advances the epoch;
// everyone else spins on the epoch word.
type flagBarrier struct {
	n       int
	counter memory.Addr
	epoch   memory.Addr
}

func (b *flagBarrier) wait(p *machine.Proc, ep *uint64) {
	target := *ep + 1
	if p.FetchAdd(b.counter, 1) == uint64(b.n-1) {
		p.WriteWord(b.counter, 0)
		p.FetchAdd(b.epoch, 1)
	} else {
		p.SpinUntilAtLeast(b.epoch, target)
	}
	*ep = target
}

// machineConfigFor mirrors experiments.ConfigFor (workload cannot import
// experiments without a cycle).
func machineConfigFor(kind string, cells int) (machine.Config, error) {
	switch kind {
	case "ksr1":
		return machine.KSR1(cells), nil
	case "ksr2":
		return machine.KSR2(cells), nil
	case "symmetry":
		return machine.Symmetry(cells), nil
	case "butterfly":
		return machine.Butterfly(cells), nil
	default:
		return machine.Config{}, fmt.Errorf("workload: unknown machine %q", kind)
	}
}

// Execute re-drives a fresh machine from a trace: allocate the recorded
// regions (asserting each base), construct the recorded locks and
// barriers, spawn one interpreter per slot on its pinned cell, and run
// to completion. The same Execute serves run, record, replay, and
// perturbed replay.
func Execute(t *Trace, o ExecOptions) (*Report, error) {
	rep, _, err := execute(t, o)
	return rep, err
}

// execute is Execute, also returning the machine it ran (already closed)
// so tests can read its engine's counters.
func execute(t *Trace, o ExecOptions) (*Report, *machine.Machine, error) {
	s := t.Header.Spec
	if t.Header.Schema != TraceSchema {
		return nil, nil, fmt.Errorf("workload: trace schema %q, want %q", t.Header.Schema, TraceSchema)
	}
	if len(t.Slots) != len(t.Header.Slots) {
		return nil, nil, fmt.Errorf("workload: trace has %d slot streams for %d slot defs", len(t.Slots), len(t.Header.Slots))
	}
	cfg, err := machineConfigFor(s.Machine, s.Cells)
	if err != nil {
		return nil, nil, err
	}
	cfg.Seed = s.Seed
	cfg.Obs = o.Obs
	cfg.Prof = o.Prof
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	m := machine.New(cfg)
	defer m.Close()
	// Data regions first, in recorded order: bases must reproduce.
	for _, rd := range t.Header.Regions {
		if rd.Bytes <= 0 {
			return nil, nil, fmt.Errorf("workload: region %q has %d bytes", rd.Name, rd.Bytes)
		}
		r := m.Alloc(rd.Name, rd.Bytes)
		if uint64(r.Base) != rd.Base {
			return nil, nil, fmt.Errorf("workload: region %q allocated at %#x, trace recorded %#x (layout drift)", rd.Name, uint64(r.Base), rd.Base)
		}
	}
	locks := make([]ksync.Lock, len(t.Header.Locks))
	for i, ld := range t.Header.Locks {
		switch ld.Algo {
		case "hw":
			locks[i] = ksync.NewHWLock(m)
		case "anderson":
			locks[i] = ksync.NewAndersonLock(m)
		case "mcs":
			locks[i] = ksync.NewMCSLock(m)
		default:
			return nil, nil, fmt.Errorf("workload: lock %q: unknown algorithm %q", ld.Name, ld.Algo)
		}
	}
	barriers := make([]runBarrier, len(t.Header.Barriers))
	for i, bd := range t.Header.Barriers {
		if bd.Algo == BarrierFlag {
			r := m.AllocPadded("wl.flag/"+bd.Name, 2)
			barriers[i] = &flagBarrier{n: bd.Procs, counter: r.PaddedSlot(0), epoch: r.PaddedSlot(1)}
			continue
		}
		f, ok := ksync.ByName(bd.Algo)
		if !ok {
			return nil, nil, fmt.Errorf("workload: barrier %q: unknown algorithm %q", bd.Name, bd.Algo)
		}
		barriers[i] = ksyncBarrier{f.New(m, bd.Procs)}
	}
	cells := make([]int, len(t.Header.Slots))
	cellSlot := make(map[int]int, len(t.Header.Slots))
	for i, sd := range t.Header.Slots {
		cells[i] = sd.Cell
		cellSlot[sd.Cell] = i
	}
	// Validate every op before spawning: a malformed stream — a loaded
	// file is untrusted input — must fail with an error here, not an
	// index panic or a stray access inside a cell program.
	regions := t.Header.Regions
	for si, ops := range t.Slots {
		for oi, op := range ops {
			if opArity[op.Kind] == 0 {
				return nil, nil, fmt.Errorf("workload: slot %d op %d: unknown op kind %d", si, oi, op.Kind)
			}
			switch op.Kind {
			case OpRead, OpWrite, OpReadRange, OpWriteRange:
				if err := checkDataOp(regions, op); err != nil {
					return nil, nil, fmt.Errorf("workload: slot %d op %d: %w", si, oi, err)
				}
			case OpLockAcq, OpLockRel:
				if op.A < 0 || op.A >= int64(len(locks)) {
					return nil, nil, fmt.Errorf("workload: slot %d op %d: lock id %d of %d", si, oi, op.A, len(locks))
				}
			case OpBarrier:
				if op.A < 0 || op.A >= int64(len(barriers)) {
					return nil, nil, fmt.Errorf("workload: slot %d op %d: barrier id %d of %d", si, oi, op.A, len(barriers))
				}
			}
		}
	}
	elapsed, err := m.RunOn(cells, func(p *machine.Proc) {
		si := cellSlot[p.CellID()]
		newSlotRun(p, t.Slots[si], locks, barriers).run()
	})
	if err != nil {
		return nil, m, err
	}
	rep, err := buildReport(t, m, elapsed)
	return rep, m, err
}

// checkDataOp checks that a data op stays inside the recorded regions:
// a single access's word lies in one, and a range has a positive stride
// and its last word, A+(B-1)·C, in the region holding its first. The
// arithmetic cannot overflow, whatever the operands.
func checkDataOp(regions []RegionDef, op Op) error {
	const word = uint64(memory.WordSize)
	what := "read"
	switch op.Kind {
	case OpWrite:
		what = "write"
	case OpReadRange:
		what = "read range"
	case OpWriteRange:
		what = "write range"
	}
	if op.A < 0 {
		return fmt.Errorf("%s at negative address %d", what, op.A)
	}
	a := uint64(op.A)
	var last uint64 // the last word a region can hold
	found := false
	for _, rd := range regions {
		if rd.Bytes < memory.WordSize || rd.Base > math.MaxUint64-uint64(rd.Bytes) {
			continue
		}
		if end := rd.Base + uint64(rd.Bytes) - word; a >= rd.Base && a <= end {
			last, found = end, true
			break
		}
	}
	if !found {
		return fmt.Errorf("%s at %#x outside every recorded region", what, a)
	}
	if op.Kind == OpRead || op.Kind == OpWrite {
		return nil
	}
	if op.C <= 0 {
		return fmt.Errorf("%s from %#x with stride %d", what, a, op.C)
	}
	if op.B > 0 && uint64(op.B-1) > (last-a)/uint64(op.C) {
		return fmt.Errorf("%s of %d words from %#x with stride %d runs past its region", what, op.B, a, op.C)
	}
	return nil
}

// slotRun interprets one slot's op stream on its processor. Compute and
// data ops are the simulator's own code running over trace data, so they
// run as one continuation chain (see machine.Proc.Run): the slot's
// goroutine resumes only at a lock or barrier op, which runs ksync
// program code, and at the end of the stream.
type slotRun struct {
	p        *machine.Proc
	ops      []Op
	next     int // index of the next op to run
	locks    []ksync.Lock
	barriers []runBarrier
	eps      []uint64 // the slot's episode counters, by barrier id
	stepFn   func()
}

func newSlotRun(p *machine.Proc, ops []Op, locks []ksync.Lock, barriers []runBarrier) *slotRun {
	s := &slotRun{p: p, ops: ops, locks: locks, barriers: barriers, eps: make([]uint64, len(barriers))}
	s.stepFn = s.step
	return s
}

// run executes the stream: each chain of compute and data ops, then the
// lock or barrier op that ended it, in the slot's goroutine.
func (s *slotRun) run() {
	for {
		s.p.Run(s.stepFn)
		if s.next == len(s.ops) {
			return
		}
		op := s.ops[s.next]
		s.next++
		switch op.Kind {
		case OpLockAcq:
			s.locks[op.A].Acquire(s.p)
		case OpLockRel:
			s.locks[op.A].Release(s.p)
		case OpBarrier:
			s.barriers[op.A].wait(s.p, &s.eps[op.A])
		}
	}
}

// step issues the next compute or data op with itself as the op's
// continuation. Zero-cost ops are skipped in a loop, never by recursion,
// so no trace can grow the stack; a lock or barrier op, or the end of
// the stream, ends the chain.
//
//ksr:hotpath
func (s *slotRun) step() {
	for s.next < len(s.ops) {
		op := &s.ops[s.next]
		switch op.Kind {
		case OpCompute:
			s.next++
			if op.A > 0 {
				s.p.ComputeThen(op.A, s.stepFn)
				return
			}
		case OpRead, OpWrite:
			s.next++
			s.p.AccessThen(memory.Addr(op.A), 1, 0, op.Kind == OpWrite, s.stepFn)
			return
		case OpReadRange, OpWriteRange:
			s.next++
			if op.B > 0 {
				s.p.AccessThen(memory.Addr(op.A), op.B, op.C, op.Kind == OpWriteRange, s.stepFn)
				return
			}
		default:
			return
		}
	}
}
