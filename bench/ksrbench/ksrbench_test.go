package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		tail bool
	}{
		{1, 50, false}, {19, 50, false}, // under 20 samples: the median alone
		{20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true},
		{1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.tail {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.tail)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.P50 != 3 || s.TailP != 50 || s.Tail != 3 || s.N != 5 {
		t.Errorf("summarize of 5 samples = %+v; want the median alone", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in CPython.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestTracerSelfAndWait drives the tracer through a synthetic timeline of
// two interleaved processes under one main span, with the clock stepped
// by hand, and checks every nanosecond lands in exactly one place.
func TestTracerSelfAndWait(t *testing.T) {
	tr := newTracer()
	var now int64
	tr.clock = func() int64 { return now }
	h := tr.hooks()
	a, b := &sim.Process{}, &sim.Process{}
	at := func(ns int64, f func()) { now = ns; f() }

	at(0, func() { tr.begin(nil, "bench.run") })
	at(10, func() { h.ProcessResume(0, a) })
	at(15, func() { tr.begin(a, "ksync.barrier") })
	at(30, func() { h.ProcessPark(0, a, "cond") })
	at(40, func() { h.ProcessResume(0, b) })
	at(45, func() { tr.begin(b, "machine.compute") })
	at(60, func() { h.ProcessPark(0, b, "sleep") })
	at(70, func() { h.ProcessResume(0, a) })
	at(90, func() { tr.end(a) })
	at(95, func() { h.ProcessDone(0, a) })
	at(100, func() { h.ProcessResume(0, b) })
	at(110, func() { tr.end(b) })
	at(112, func() { h.ProcessDone(0, b) })
	at(120, func() { tr.end(nil) })
	tr.flush()

	want := map[string]spanStat{
		// A ran 15..30 and 70..90 inside the barrier and was parked 30..70.
		"ksync.barrier": {Self: 35, Wait: 40, Dur: 75, Count: 1},
		// B ran 45..60 and 100..110 and was parked 60..100.
		"machine.compute": {Self: 25, Wait: 40, Dur: 65, Count: 1},
		// The engine held the thread 30..40, 60..70, 95..100 and 112..120.
		"sim.dispatch": {Self: 33},
		// Main 0..10, plus the processes' span-free stretches 10..15,
		// 40..45, 90..95 and 110..112.
		"bench.run": {Self: 27, Dur: 120, Count: 1},
	}
	var total int64
	for name, st := range tr.stats {
		if st.Self != 0 || st.Count != 0 {
			if w, ok := want[name]; !ok || *st != w {
				t.Errorf("%s = %+v; want %+v", name, *st, want[name])
			}
		}
		total += st.Self
	}
	if total != 120 {
		t.Errorf("self times sum to %d ns over a 120 ns timeline", total)
	}
	if got := tr.explainedNs(); got != 35+25+33 {
		t.Errorf("explained = %d ns; want the layer spans' 93 (bench.run is not a layer)", got)
	}
}

// TestOpenLoopCountsStalls checks the open loop's due-time accounting: a
// send that stalls delays every later submission, and each of them is
// timed from when it was due, so the stall shows in their latencies.
func TestOpenLoopCountsStalls(t *testing.T) {
	const gap, stall = 2 * time.Millisecond, 40 * time.Millisecond
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	lat := make([]time.Duration, len(due))
	late := submitLoop(time.Now(), due, func(i int, dueAt time.Time) {
		if i == 0 {
			time.Sleep(stall)
		}
		lat[i] = time.Since(dueAt)
	})
	for i := 1; i < len(due); i++ {
		floor := stall - due[i]
		if lat[i] < floor {
			t.Errorf("job %d latency %v; queued behind a %v stall it must be at least %v", i, lat[i], stall, floor)
		}
		if late[i] < floor.Seconds() {
			t.Errorf("job %d went out %.4fs late; want at least %v", i, late[i], floor)
		}
	}
}

// TestDispatchWaitNonNegative offers a burst of misses, so that most wait
// behind the one worker and some find it idle, and checks that every
// miss's wait for the worker is measured and none starts before its
// submission reached the server.
func TestDispatchWaitNonNegative(t *testing.T) {
	s, err := startService()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.recording.Store(true)
	gen := &specGen{rng: sim.NewRNG(3), seen: make(map[string]bool)}
	var jobs []svcJob
	for i := 0; i < 6; i++ {
		jobs = append(jobs, svcJob{due: time.Duration(i) * time.Millisecond, hot: -1, spec: gen.spec()})
	}
	obs := s.phase(jobs, nil, nil, nil)
	waits := s.dispatchWaits(obs)
	if len(waits) != len(jobs) {
		t.Fatalf("%d waits measured for %d misses", len(waits), len(jobs))
	}
	for i, w := range waits {
		if w < 0 {
			t.Errorf("miss %d: wait %.1f us; a job cannot start before it is submitted", i, w)
		}
	}
	for i, o := range obs {
		if o.run <= 0 {
			t.Errorf("miss %d: run time %v; the server times every finished run", i, o.run)
		}
	}
}

// TestHostProbeScale checks that a time measured between probes at the
// reference speed is unchanged, and one measured while the probes ran
// twice as slow is halved.
func TestHostProbeScale(t *testing.T) {
	p, err := newHostProbe(true)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if s := p.seconds(); s <= 0 {
		t.Errorf("probe took %v s", s)
	}
	if got := p.scale(0.4, p.ref, p.ref); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("scale at the reference speed = %v; want 0.4", got)
	}
	if got := p.scale(0.4, 1.5*p.ref, 2.5*p.ref); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("scale with probes averaging twice the reference = %v; want 0.2", got)
	}
}

func TestCompareVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"faster everywhere", base, scale(0.9), "better"},
		{"identical", base, base, "unchanged"},
		{"slower past the bound", base, scale(1.2), "worse"},
		{"slower within the bound", base, scale(1.05), "unchanged"},
		{"spread wider than the bound", noisy, noisy, "unresolved"},
		{"spread wide but every run better", noisy, scale(0.5), "better"},
	} {
		if got, _ := verdict(c.a, c.b, true, 0.1); got != c.want {
			t.Errorf("%s: verdict %q; want %q", c.name, got, c.want)
		}
	}
}
