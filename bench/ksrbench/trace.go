package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/sim"
)

// maxSpans caps how many closed spans a traced run keeps for the spans
// file; layer accounting covers every span regardless.
const maxSpans = 50000

// layers are the modules a span name may start with. Host time charged
// to any other name (the benchmark's own loops) is unexplained.
var layers = []string{
	"sim", "machine", "cache", "coherence", "fabric", "ksync", "kernels",
	"workload", "server", "resultcache", "jobq", "journal", "experiments",
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

func isLayer(l string) bool {
	for _, x := range layers {
		if x == l {
			return true
		}
	}
	return false
}

// spanRec is one closed span as written to the spans file.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanStat accumulates one span name's host time: Self is time the host
// thread spent inside the span and not inside a child, Wait is time the
// span's process spent parked (blocked in simulated time while other
// processes or the engine ran), Dur is the summed span durations.
type spanStat struct {
	Self  int64 `json:"self"`
	Wait  int64 `json:"wait"`
	Dur   int64 `json:"dur"`
	Count int64 `json:"count"`
}

type openSpan struct {
	id, parent uint64
	name       string
	start      int64
	st         *spanStat
}

// tctx is one thread of control on the host timeline: the goroutine
// that called into the simulator (main), one simulated process, or the
// engine's dispatch loop.
type tctx struct {
	stack    []openSpan
	parkedAt int64 // -1 while running
}

// tracer attributes host time to layers on one timeline. The simulator
// runs exactly one thread of control at a time (a control token passes
// between processes), so every host nanosecond of a round belongs to
// exactly one context: the benchmark's main goroutine, a simulated
// process, or the engine dispatching events between a park and the
// next resume. The engine's ProcessResume/ProcessPark/ProcessDone hooks
// tell the tracer which context holds the token; spans opened by the
// benchmark around each layer call say which layer that context is in.
// A nil *tracer is disabled and every method is a no-op.
type tracer struct {
	epoch  time.Time
	last   int64
	cur    *tctx
	main   tctx
	engine tctx
	procs  map[*sim.Process]*tctx
	stats  map[string]*spanStat
	spans  []spanRec
	nextID uint64
	req    uint64
	// resumes counts process resumptions (context switches into a
	// simulated process).
	resumes int64
	// dropped counts spans closed after the maxSpans cap.
	dropped int
	// clock, when set, replaces the host clock (tests drive a synthetic
	// timeline with it).
	clock func() int64
}

func newTracer() *tracer {
	t := &tracer{
		epoch: time.Now(),
		procs: make(map[*sim.Process]*tctx),
		stats: make(map[string]*spanStat),
	}
	t.main.parkedAt = -1
	t.engine.parkedAt = -1
	t.engine.stack = []openSpan{{name: "sim.dispatch", st: t.stat("sim.dispatch")}}
	t.cur = &t.main
	return t
}

func (t *tracer) now() int64 {
	if t.clock != nil {
		return t.clock()
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) stat(name string) *spanStat {
	st := t.stats[name]
	if st == nil {
		st = &spanStat{}
		t.stats[name] = st
	}
	return st
}

// ctxOf returns the context of process p (main for nil).
func (t *tracer) ctxOf(p *sim.Process) *tctx {
	if p == nil {
		return &t.main
	}
	c := t.procs[p]
	if c == nil {
		c = &tctx{parkedAt: -1}
		t.procs[p] = c
	}
	return c
}

// innermost is the span host time in c is charged to. A process with no
// span of its own is running the body of whatever layer call main made
// to start the simulation (a kernel, a workload interpreter), so it
// inherits main's innermost span.
func (t *tracer) innermost(c *tctx) *spanStat {
	if n := len(c.stack); n > 0 {
		return c.stack[n-1].st
	}
	if c != &t.main {
		return t.innermost(&t.main)
	}
	return t.stat("unattributed")
}

// switchTo charges the time since the last boundary to the context that
// held the host thread, then hands the thread to c.
func (t *tracer) switchTo(c *tctx) int64 {
	now := t.now()
	t.innermost(t.cur).Self += now - t.last
	t.last = now
	t.cur = c
	return now
}

// begin opens a span named name in process p's context (main for nil).
func (t *tracer) begin(p *sim.Process, name string) {
	if t == nil {
		return
	}
	c := t.ctxOf(p)
	now := t.switchTo(c)
	var parent uint64
	if n := len(c.stack); n > 0 {
		parent = c.stack[n-1].id
	} else if c != &t.main && len(t.main.stack) > 0 {
		parent = t.main.stack[len(t.main.stack)-1].id
	}
	t.nextID++
	c.stack = append(c.stack, openSpan{id: t.nextID, parent: parent, name: name, start: now, st: t.stat(name)})
}

// end closes the innermost span of p's context.
func (t *tracer) end(p *sim.Process) {
	if t == nil {
		return
	}
	c := t.ctxOf(p)
	now := t.switchTo(c)
	n := len(c.stack) - 1
	s := c.stack[n]
	c.stack = c.stack[:n]
	s.st.Count++
	s.st.Dur += now - s.start
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRec{ID: s.id, Parent: s.parent, Req: t.req, Name: s.name, Start: s.start, End: now})
	} else {
		t.dropped++
	}
}

// record adds a span observed outside the single-timeline accounting,
// by goroutines that run concurrently (the service's client): it counts
// toward the span's duration and the spans file, not toward self time.
func (t *tracer) record(name string, req uint64, start, end time.Time) {
	st := t.stat(name)
	s, e := int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	st.Count++
	st.Dur += e - s
	t.nextID++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRec{ID: t.nextID, Req: req, Name: name, Start: s, End: e})
	} else {
		t.dropped++
	}
}

// hooks returns the engine callbacks that move the host thread between
// contexts; nil (hooks disarmed) for a disabled tracer.
func (t *tracer) hooks() *sim.Hooks {
	if t == nil {
		return nil
	}
	return &sim.Hooks{
		ProcessResume: func(_ sim.Time, p *sim.Process) {
			t.resumes++
			c := t.ctxOf(p)
			now := t.switchTo(c)
			if c.parkedAt >= 0 {
				t.innermost(c).Wait += now - c.parkedAt
				c.parkedAt = -1
			}
		},
		ProcessPark: func(_ sim.Time, p *sim.Process, _ string) {
			c := t.ctxOf(p)
			now := t.switchTo(&t.engine)
			c.parkedAt = now
		},
		ProcessDone: func(_ sim.Time, p *sim.Process) {
			t.switchTo(&t.engine)
			delete(t.procs, p)
		},
	}
}

// flush charges the time up to now to the current context; call it
// before reading the stats.
func (t *tracer) flush() {
	if t != nil {
		t.switchTo(t.cur)
	}
}

// layerTotals sums self time, wait and span count per layer, in ns.
func (t *tracer) layerTotals() map[string]spanStat {
	out := make(map[string]spanStat)
	for name, st := range t.stats {
		l := layerOf(name)
		agg := out[l]
		agg.Self += st.Self
		agg.Wait += st.Wait
		agg.Dur += st.Dur
		agg.Count += st.Count
		out[l] = agg
	}
	return out
}

// explainedNs is the host time charged to a layer.
func (t *tracer) explainedNs() int64 {
	var n int64
	for l, st := range t.layerTotals() {
		if isLayer(l) {
			n += st.Self
		}
	}
	return n
}

// spanFile is the on-disk form of one workload's traced run.
type spanFile struct {
	Workload string              `json:"workload"`
	Dropped  int                 `json:"dropped"`
	Stats    map[string]spanStat `json:"stats_ns"`
	Spans    []spanRec           `json:"spans"`
}

func (t *tracer) file(workload string) spanFile {
	f := spanFile{Workload: workload, Dropped: t.dropped, Stats: make(map[string]spanStat), Spans: t.spans}
	for n, st := range t.stats {
		f.Stats[n] = *st
	}
	return f
}

// writeSpans writes the traced runs' spans as one JSON array.
func writeSpans(path string, files []spanFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(files)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
