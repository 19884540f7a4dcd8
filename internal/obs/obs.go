// Package obs is ksrsim's observability layer: event tracing keyed by
// simulated time, time-series telemetry sampled every N simulated
// cycles, and machine-readable run manifests.
//
// The design goal is zero overhead when disabled. Every producer in the
// stack (sim engine, fabric, coherence directory, caches, ksync) holds a
// nil *Recorder until one is attached, and guards each emission with a
// single nil check; the sim engine goes further and uses nil-checked
// function pointers (sim.Hooks) so the ~18 ns event fast path is not
// perturbed. All Recorder methods are safe on a nil receiver.
//
// A Session collects one Recorder per observed machine. Sweeps that run
// points in parallel attach one Recorder per point, labelled by the
// point's identity ("barriers/mcs/p=16"); trace output merges recorders
// sorted by label, so the bytes written are identical regardless of
// worker count or completion order.
//
// Trace output is Chrome trace_event JSON (the array-of-events form with
// "traceEvents"), loadable in Perfetto or chrome://tracing. Timestamps
// are simulated time: the ts/dur fields are microseconds of simulated
// time with nanosecond precision.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Category is a bitmask selecting which layers emit trace events.
type Category uint32

const (
	// CatSim traces the engine itself: process run/park slices.
	CatSim Category = 1 << iota
	// CatRing traces the interconnect: per-hop slot occupancy and
	// whole transactions (ring, bus, and butterfly fabrics).
	CatRing
	// CatCoh traces the coherence protocol: fills, invalidations,
	// NACK/retry, atomic sub-page state changes.
	CatCoh
	// CatCache traces the cache hierarchy: misses and evictions.
	CatCache
	// CatSync traces ksync: lock acquire/release and barrier episodes.
	CatSync

	// CatAll enables every category.
	CatAll = CatSim | CatRing | CatCoh | CatCache | CatSync
)

var catNames = []struct {
	c    Category
	name string
}{
	{CatSim, "sim"},
	{CatRing, "ring"},
	{CatCoh, "coh"},
	{CatCache, "cache"},
	{CatSync, "sync"},
}

// ParseCategories parses a comma-separated category list ("ring,coh,sync").
// The empty string and "all" mean every category.
func ParseCategories(s string) (Category, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return CatAll, nil
	}
	var mask Category
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for _, cn := range catNames {
			if cn.name == part {
				mask |= cn.c
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("obs: unknown trace category %q (have sim, ring, coh, cache, sync, all)", part)
		}
	}
	return mask, nil
}

// String renders the mask as the comma-separated list ParseCategories accepts.
func (c Category) String() string {
	if c == CatAll {
		return "all"
	}
	var parts []string
	for _, cn := range catNames {
		if c&cn.c != 0 {
			parts = append(parts, cn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// label returns the single category name used in emitted events.
func (c Category) label() string {
	for _, cn := range catNames {
		if c == cn.c {
			return cn.name
		}
	}
	return "misc"
}

// Arg is one integer key/value attached to a trace event. All trace
// arguments in ksrsim are integers (addresses, sub-page ids, counts),
// which keeps formatting deterministic.
type Arg struct {
	Key string
	Val int64
}

// event is one buffered trace record.
type event struct {
	name string
	cat  Category
	ph   byte // 'X' complete, 'i' instant, 'C' counter
	ts   sim.Time
	dur  sim.Time
	tid  int
	args []Arg
}

// Options configures a Session.
type Options struct {
	// Cats selects which trace categories recorders buffer. Zero means
	// no event tracing (recorders still carry metadata, samples, and
	// final counter snapshots for manifests).
	Cats Category
	// SampleEvery, when positive, arms the telemetry sampler: each
	// observed machine snapshots its counters every SampleEvery of
	// simulated time.
	SampleEvery sim.Time
}

// Session owns the recorders of one CLI invocation (possibly spanning a
// whole parallel sweep). Methods on a nil *Session are safe: Recorder
// returns nil, so an unobserved run costs nothing.
type Session struct {
	opts Options

	mu   sync.Mutex
	recs []*Recorder
	pdes []PDESRecord

	// Live progress, updated with atomics so another goroutine (the
	// ksrsimd SSE streamer) can poll a running session without racing
	// the machine goroutines that record into it.
	pointsDone  atomic.Int64
	pointsTotal atomic.Int64
	samples     atomic.Int64
	cancelled   atomic.Bool
}

// NewSession creates a session with the given options.
func NewSession(opts Options) *Session {
	return &Session{opts: opts}
}

// Recorder creates and registers a recorder for one machine. The label
// must uniquely identify the machine within the session (sweeps use the
// point identity, e.g. "latency/p=8"): merged output is sorted by label,
// which is what makes parallel sweep traces byte-identical across worker
// counts. Returns nil when s is nil.
func (s *Session) Recorder(label string) *Recorder {
	if s == nil {
		return nil
	}
	r := &Recorder{
		sess:        s,
		label:       label,
		mask:        s.opts.Cats,
		sampleEvery: s.opts.SampleEvery,
	}
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
	return r
}

// AddPoints grows the session's sweep-point total by n. Experiment
// sweeps call it once per forEach fan-out; nil-safe.
func (s *Session) AddPoints(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.pointsTotal.Add(int64(n))
}

// NotePoint records one completed sweep point. Nil-safe.
func (s *Session) NotePoint() {
	if s == nil {
		return
	}
	s.pointsDone.Add(1)
}

// Progress returns the completed and total sweep-point counts so far.
// Safe to call concurrently with a running sweep.
func (s *Session) Progress() (done, total int64) {
	if s == nil {
		return 0, 0
	}
	return s.pointsDone.Load(), s.pointsTotal.Load()
}

// Samples returns the number of telemetry rows recorded so far across
// every recorder. Safe to call concurrently with a running sweep.
func (s *Session) Samples() int64 {
	if s == nil {
		return 0
	}
	return s.samples.Load()
}

// Cancel marks the session cancelled: sweeps observing it stop before
// starting their next point. Already-running points finish (a simulation
// cannot be interrupted mid-run without losing determinism). Nil-safe.
func (s *Session) Cancel() {
	if s == nil {
		return
	}
	s.cancelled.Store(true)
}

// Cancelled reports whether Cancel was called.
func (s *Session) Cancelled() bool {
	return s != nil && s.cancelled.Load()
}

// sorted returns the session's recorders ordered by label.
func (s *Session) sorted() []*Recorder {
	s.mu.Lock()
	recs := append([]*Recorder(nil), s.recs...)
	s.mu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].label < recs[j].label })
	return recs
}

// Recorder buffers the trace events, telemetry samples, and final
// counter snapshot of a single observed machine. One machine runs on one
// goroutine at a time (the engine's control token), so Recorder needs no
// internal locking; distinct machines get distinct recorders.
type Recorder struct {
	sess  *Session
	label string
	mask  Category
	clock func() sim.Time

	events      []event
	threadName  map[int]string
	threadOrder []int

	eventsFired int64

	sampleEvery sim.Time
	armed       bool
	series      *TimeSeries

	meta  MachineRecord
	final bool
}

// Enabled reports whether any of the categories in c are being traced.
func (r *Recorder) Enabled(c Category) bool { return r != nil && r.mask&c != 0 }

// Attach binds the recorder to a machine: its simulated clock and the
// identity fields that end up in the run manifest. machine.New calls it.
func (r *Recorder) Attach(clock func() sim.Time, machineName string, cells int, seed uint64, faultPlan json.RawMessage) {
	if r == nil {
		return
	}
	r.clock = clock
	r.meta = MachineRecord{
		Label:     r.label,
		Machine:   machineName,
		Cells:     cells,
		Seed:      seed,
		FaultPlan: faultPlan,
	}
}

// Now returns the attached machine's simulated time (0 before Attach).
func (r *Recorder) Now() sim.Time {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock()
}

// SetThreadName names a trace thread lane (one per cell/process id).
func (r *Recorder) SetThreadName(tid int, name string) {
	if r == nil {
		return
	}
	if r.threadName == nil {
		r.threadName = make(map[int]string)
	}
	if _, ok := r.threadName[tid]; ok {
		return
	}
	r.threadName[tid] = name
	r.threadOrder = append(r.threadOrder, tid)
}

// Instant records a point event at the current simulated time.
func (r *Recorder) Instant(c Category, tid int, name string, args ...Arg) {
	if r == nil || r.mask&c == 0 {
		return
	}
	r.events = append(r.events, event{name: name, cat: c, ph: 'i', ts: r.Now(), tid: tid, args: args})
}

// CompleteAt records a duration slice spanning [start, end].
func (r *Recorder) CompleteAt(c Category, tid int, name string, start, end sim.Time, args ...Arg) {
	if r == nil || r.mask&c == 0 {
		return
	}
	if end < start {
		end = start
	}
	r.events = append(r.events, event{name: name, cat: c, ph: 'X', ts: start, dur: end - start, tid: tid, args: args})
}

// Count records a counter track sample (rendered as a stacked chart by
// Perfetto) at the current simulated time.
func (r *Recorder) Count(c Category, tid int, name string, value int64) {
	if r == nil || r.mask&c == 0 {
		return
	}
	r.events = append(r.events, event{name: name, cat: c, ph: 'C', ts: r.Now(), tid: tid, args: []Arg{{Key: "value", Val: value}}})
}

// EventsFired returns the number of engine callback events dispatched
// since the recorder was attached (counted by the EventFired hook).
func (r *Recorder) EventsFired() int64 {
	if r == nil {
		return 0
	}
	return r.eventsFired
}

// SampleInterval returns the telemetry sampling period (0 = disabled).
func (r *Recorder) SampleInterval() sim.Time {
	if r == nil {
		return 0
	}
	return r.sampleEvery
}

// Sampler arms the telemetry sampler once: the first call creates and
// returns the recorder's time series with the given columns; later calls
// (and calls when sampling is disabled) return nil. machine.Run uses the
// non-nil return as the signal to start its sampling event.
func (r *Recorder) Sampler(cols []string) *TimeSeries {
	if r == nil || r.sampleEvery <= 0 || r.armed {
		return nil
	}
	r.armed = true
	r.series = &TimeSeries{Columns: append([]string(nil), cols...)}
	if r.sess != nil {
		r.series.onRecord = func() { r.sess.samples.Add(1) }
	}
	return r.series
}

// SetFinal stores the machine's end-of-run counter snapshot for the
// manifest. Called after every Run; the last call wins.
func (r *Recorder) SetFinal(simTime sim.Time, counters []Counter) {
	if r == nil {
		return
	}
	r.meta.SimTimeNs = simTime.Ns()
	r.meta.Counters = counters
	r.final = true
}

// SimHooks builds the engine hook set for this recorder: run/park slices
// per process when the sim category is enabled, plus the dispatched-event
// counter that telemetry sampling reads. Returns nil when neither is
// wanted, so the engine keeps its nil fast path.
func (r *Recorder) SimHooks() *sim.Hooks {
	if r == nil {
		return nil
	}
	traceSim := r.mask&CatSim != 0
	if !traceSim && r.sampleEvery <= 0 {
		return nil
	}
	h := &sim.Hooks{
		EventFired: func(at sim.Time) { r.eventsFired++ },
	}
	if !traceSim {
		return h
	}
	// Per-process slice state, indexed by process id (dense from 0).
	type track struct {
		runStart  sim.Time
		parkStart sim.Time
		why       string
		running   bool
		parked    bool
		named     bool
	}
	var tracks []track
	get := func(id int) *track {
		for id >= len(tracks) {
			tracks = append(tracks, track{})
		}
		return &tracks[id]
	}
	h.ProcessResume = func(at sim.Time, p *sim.Process) {
		t := get(p.ID())
		if !t.named {
			t.named = true
			r.SetThreadName(p.ID(), p.Name())
		}
		if t.parked {
			t.parked = false
			r.events = append(r.events, event{name: t.why, cat: CatSim, ph: 'X', ts: t.parkStart, dur: at - t.parkStart, tid: p.ID()})
		}
		t.running = true
		t.runStart = at
	}
	h.ProcessPark = func(at sim.Time, p *sim.Process, why string) {
		t := get(p.ID())
		if t.running {
			t.running = false
			r.events = append(r.events, event{name: "run", cat: CatSim, ph: 'X', ts: t.runStart, dur: at - t.runStart, tid: p.ID()})
		}
		t.parked = true
		t.parkStart = at
		t.why = why
	}
	h.ProcessDone = func(at sim.Time, p *sim.Process) {
		t := get(p.ID())
		if t.running {
			t.running = false
			r.events = append(r.events, event{name: "run", cat: CatSim, ph: 'X', ts: t.runStart, dur: at - t.runStart, tid: p.ID()})
		}
	}
	return h
}

// fmtTime writes a sim.Time as Chrome-trace microseconds with nanosecond
// precision ("%d.%03d"), keeping output exact and deterministic.
func fmtTime(b *bytes.Buffer, t sim.Time) {
	if t < 0 {
		t = 0
	}
	fmt.Fprintf(b, "%d.%03d", int64(t)/1000, int64(t)%1000)
}

// qstr writes s as a JSON string.
func qstr(b *bytes.Buffer, s string) {
	q, err := json.Marshal(s)
	if err != nil {
		// A Go string always marshals; keep the writer total anyway.
		b.WriteString(`"?"`)
		return
	}
	b.Write(q)
}

// writeEvent writes one buffered event as a trace_event JSON object.
func writeEvent(b *bytes.Buffer, pid int, ev *event) {
	b.WriteString(`{"name":`)
	qstr(b, ev.name)
	b.WriteString(`,"cat":"`)
	b.WriteString(ev.cat.label())
	b.WriteString(`","ph":"`)
	b.WriteByte(ev.ph)
	b.WriteString(`","ts":`)
	fmtTime(b, ev.ts)
	if ev.ph == 'X' {
		b.WriteString(`,"dur":`)
		fmtTime(b, ev.dur)
	}
	if ev.ph == 'i' {
		b.WriteString(`,"s":"t"`)
	}
	fmt.Fprintf(b, `,"pid":%d,"tid":%d`, pid, ev.tid)
	if len(ev.args) > 0 {
		b.WriteString(`,"args":{`)
		for i := range ev.args {
			if i > 0 {
				b.WriteByte(',')
			}
			qstr(b, ev.args[i].Key)
			fmt.Fprintf(b, `:%d`, ev.args[i].Val)
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
}

// writeMeta writes a process_name/thread_name metadata event.
func writeMeta(b *bytes.Buffer, pid, tid int, kind, name string) {
	fmt.Fprintf(b, `{"name":"%s","ph":"M","ts":0.000,"pid":%d,"tid":%d,"args":{"name":`, kind, pid, tid)
	qstr(b, name)
	b.WriteString(`}}`)
}

// TraceJSON renders every recorder's buffered events as one Chrome
// trace_event JSON document. Recorders are merged in label order and
// events kept in emission order, so the output is byte-identical for a
// given workload regardless of sweep parallelism.
func (s *Session) TraceJSON() []byte {
	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			b.WriteString(",\n")
		} else {
			b.WriteString("\n")
			first = false
		}
	}
	for pid, r := range s.sorted() {
		sep()
		writeMeta(&b, pid, 0, "process_name", r.label)
		for _, tid := range r.threadOrder {
			sep()
			writeMeta(&b, pid, tid, "thread_name", r.threadName[tid])
		}
		for i := range r.events {
			sep()
			writeEvent(&b, pid, &r.events[i])
		}
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

// MachineRecords returns the manifest record of every observed machine,
// in label order.
func (s *Session) MachineRecords() []MachineRecord {
	var out []MachineRecord
	for _, r := range s.sorted() {
		out = append(out, r.meta)
	}
	return out
}

// RecordPDES adds one partitioned run's coordinator accounting to the
// session for inclusion in the manifest. Nil-safe (no session, no
// record) and concurrency-safe: parallel sweep points may record from
// any worker; PDESRecords sorts by label, so manifest output stays
// byte-identical across worker counts.
func (s *Session) RecordPDES(rec PDESRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.pdes = append(s.pdes, rec)
	s.mu.Unlock()
}

// PDESRecords returns the recorded partitioned-run accounting in label
// order.
func (s *Session) PDESRecords() []PDESRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]PDESRecord(nil), s.pdes...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
