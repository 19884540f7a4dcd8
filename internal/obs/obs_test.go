package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseCategories(t *testing.T) {
	cases := []struct {
		in   string
		want Category
	}{
		{"", CatAll},
		{"all", CatAll},
		{"ring", CatRing},
		{"ring,coh,sync", CatRing | CatCoh | CatSync},
		{" sim , cache ", CatSim | CatCache},
	}
	for _, c := range cases {
		got, err := ParseCategories(c.in)
		if err != nil {
			t.Fatalf("ParseCategories(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseCategories(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"bogus", "ring,nope", "ring;coh"} {
		if _, err := ParseCategories(bad); err == nil {
			t.Errorf("ParseCategories(%q): want error", bad)
		}
	}
}

func TestCategoryStringRoundTrip(t *testing.T) {
	for _, c := range []Category{CatSim, CatRing | CatSync, CatAll} {
		back, err := ParseCategories(c.String())
		if err != nil || back != c {
			t.Errorf("round-trip %v via %q: got %v, err %v", c, c.String(), back, err)
		}
	}
	if Category(0).String() != "none" {
		t.Errorf("zero mask renders %q", Category(0).String())
	}
}

// TestNilSafety: the whole API must be callable on nil receivers so an
// unobserved machine costs exactly one nil check per emission site.
func TestNilSafety(t *testing.T) {
	var s *Session
	r := s.Recorder("x")
	if r != nil {
		t.Fatal("nil session produced a recorder")
	}
	if r.Enabled(CatAll) {
		t.Error("nil recorder claims enabled")
	}
	r.Attach(nil, "ksr1", 2, 1, nil)
	r.Instant(CatRing, 0, "e")
	r.CompleteAt(CatRing, 0, "e", 0, 1)
	r.Count(CatRing, 0, "c", 1)
	r.SetThreadName(0, "cell0")
	r.SetFinal(0, nil)
	if r.Sampler([]string{"a"}) != nil {
		t.Error("nil recorder armed a sampler")
	}
	if r.SimHooks() != nil {
		t.Error("nil recorder produced sim hooks")
	}
	if r.Now() != 0 || r.EventsFired() != 0 || r.SampleInterval() != 0 {
		t.Error("nil recorder accessors returned nonzero")
	}
	var ts *TimeSeries
	if ts.Len() != 0 {
		t.Error("nil time series has length")
	}
}

func TestRecorderMaskGating(t *testing.T) {
	s := NewSession(Options{Cats: CatRing})
	r := s.Recorder("m")
	r.Instant(CatCoh, 0, "dropped")
	r.Instant(CatRing, 0, "kept")
	if got := len(r.events); got != 1 {
		t.Fatalf("mask gating kept %d events, want 1", got)
	}
	if r.events[0].name != "kept" {
		t.Fatalf("wrong event survived: %q", r.events[0].name)
	}
}

func TestCompleteAtClampsReversedSpan(t *testing.T) {
	s := NewSession(Options{Cats: CatAll})
	r := s.Recorder("m")
	r.CompleteAt(CatSim, 0, "rev", 100, 50)
	if r.events[0].ts != 100 || r.events[0].dur != 0 {
		t.Fatalf("reversed span not clamped: ts=%d dur=%d", r.events[0].ts, r.events[0].dur)
	}
}

// buildTestSession assembles a small two-recorder session by hand, with
// recorders created in an order different from their label sort order.
func buildTestSession() *Session {
	s := NewSession(Options{Cats: CatAll})
	var now sim.Time
	clock := func() sim.Time { return now }

	b := s.Recorder("run/b")
	b.Attach(clock, "ksr1", 2, 7, json.RawMessage(`{"rate":0.5}`))
	a := s.Recorder("run/a")
	a.Attach(clock, "ksr1", 2, 7, nil)

	a.SetThreadName(0, "cell0")
	a.SetThreadName(1, "cell1")
	now = 1500
	a.Instant(CatCoh, 1, "nack", Arg{Key: "attempt", Val: 2})
	a.CompleteAt(CatRing, 0, "ring.tx", 0, 1500, Arg{Key: "dst", Val: 1})
	a.Count(CatRing, 0, "ring0.0", 1)
	a.SetFinal(1500, []Counter{{Name: "fabric.transactions", Value: 3}})

	now = 250
	b.CompleteAt(CatSync, 1, "barrier.mcs", 0, now)
	b.SetFinal(250, nil)
	return s
}

func TestTraceJSONValidatesAndMerges(t *testing.T) {
	s := buildTestSession()
	trace := s.TraceJSON()
	if err := ValidateTrace(trace); err != nil {
		t.Fatalf("self-emitted trace fails validation: %v\n%s", err, trace)
	}
	body := string(trace)
	// Recorders must appear in label order regardless of creation order.
	ia, ib := strings.Index(body, `"run/a"`), strings.Index(body, `"run/b"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("label-sorted merge broken: run/a at %d, run/b at %d", ia, ib)
	}
	for _, want := range []string{`"nack"`, `"ring.tx"`, `"barrier.mcs"`, `"cell0"`, `"thread_name"`, `"dur":1.500`} {
		if !strings.Contains(body, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	// Byte determinism: an identically-built session emits identical bytes.
	if !bytes.Equal(trace, buildTestSession().TraceJSON()) {
		t.Error("identical sessions emitted different trace bytes")
	}
}

func TestValidateTraceRejectsCorruption(t *testing.T) {
	good := string(buildTestSession().TraceJSON())
	cases := map[string]string{
		"not json":         "{",
		"wrong time unit":  strings.Replace(good, `"displayTimeUnit":"ns"`, `"displayTimeUnit":"ms"`, 1),
		"unnamed event":    strings.Replace(good, `"name":"nack"`, `"name":""`, 1),
		"bad phase":        strings.Replace(good, `"ph":"i"`, `"ph":"Z"`, 1),
		"unknown field":    strings.Replace(good, `"ph":"i"`, `"ph":"i","bogus":1`, 1),
		"counter no value": strings.Replace(good, `"args":{"value":1}`, `"args":{"other":1}`, 1),
	}
	for name, body := range cases {
		if body == good {
			t.Fatalf("%s: replacement did not apply", name)
		}
		if err := ValidateTrace([]byte(body)); err == nil {
			t.Errorf("%s: corrupted trace passed validation", name)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	s := buildTestSession()
	m := Manifest{
		Schema:      ManifestSchema,
		Command:     "latency",
		Args:        []string{"-cells", "4"},
		GoVersion:   "go1.22",
		GitRevision: "abc123",
		StartedAt:   "2026-01-02T03:04:05Z",
		WallSeconds: 1.25,
		Parallelism: 4,
		TraceFile:   "t.json",
		TraceCats:   "all",
		SampleNs:    1000,
		Machines:    s.MachineRecords(),
		Results:     []NamedResult{{Name: "0/r", Data: json.RawMessage(`{"x":1}`)}},
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateManifest(b)
	if err != nil {
		t.Fatalf("round-trip failed validation: %v", err)
	}
	if got.Command != "latency" || got.Parallelism != 4 || len(got.Machines) != 2 || len(got.Results) != 1 {
		t.Fatalf("round-trip lost fields: %+v", got)
	}
	// Machine records carry identity and the final counter snapshot.
	if got.Machines[0].Label != "run/a" || got.Machines[0].Counters[0].Name != "fabric.transactions" {
		t.Fatalf("machine record mangled: %+v", got.Machines[0])
	}
	if got.Machines[1].FaultPlan == nil {
		t.Fatal("fault plan dropped")
	}
}

func TestValidateManifestRejectsCorruption(t *testing.T) {
	m := Manifest{Schema: ManifestSchema, Command: "all", GoVersion: "go1.22",
		Machines: []MachineRecord{{Label: "l", Machine: "ksr1", Cells: 2}}}
	good, _ := json.Marshal(m)
	cases := map[string]string{
		"wrong schema":    strings.Replace(string(good), ManifestSchema, "ksrsim/manifest/v0", 1),
		"missing command": strings.Replace(string(good), `"command":"all"`, `"command":""`, 1),
		"unknown field":   strings.Replace(string(good), `"command":"all"`, `"command":"all","extra":1`, 1),
		"bad machine":     strings.Replace(string(good), `"cells":2`, `"cells":0`, 1),
	}
	for name, body := range cases {
		if body == string(good) {
			t.Fatalf("%s: replacement did not apply", name)
		}
		if _, err := ValidateManifest([]byte(body)); err == nil {
			t.Errorf("%s: corrupted manifest passed validation", name)
		}
	}
}

func TestSamplerArmsOnce(t *testing.T) {
	s := NewSession(Options{SampleEvery: 100})
	r := s.Recorder("m")
	ts := r.Sampler([]string{"a", "b"})
	if ts == nil {
		t.Fatal("sampler did not arm")
	}
	if r.Sampler([]string{"a", "b"}) != nil {
		t.Fatal("sampler armed twice")
	}
	row := []float64{1, 2}
	ts.Record(100, row)
	row[0] = 99 // Record must copy
	ts.Record(200, []float64{3, 4})
	if ts.Len() != 2 || ts.Rows[0][0] != 1 {
		t.Fatalf("time series did not copy rows: %+v", ts.Rows)
	}

	csv := string(s.TelemetryCSV())
	want := "label,t_ns,a,b\nm,100,1,2\nm,200,3,4\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
	spark := s.RenderTelemetry(40)
	if !strings.Contains(spark, "telemetry m") || !strings.Contains(spark, "a ") {
		t.Fatalf("sparkline render missing content:\n%s", spark)
	}
}

func TestSimHooksGating(t *testing.T) {
	// No sim category, no sampling: engine keeps its nil fast path.
	if r := NewSession(Options{Cats: CatRing}).Recorder("m"); r.SimHooks() != nil {
		t.Error("hooks armed without sim category or sampling")
	}
	// Sampling only: just the event counter, no run/park tracking.
	r := NewSession(Options{SampleEvery: 50}).Recorder("m")
	h := r.SimHooks()
	if h == nil || h.EventFired == nil {
		t.Fatal("sampling did not arm the event counter")
	}
	if h.ProcessResume != nil || h.ProcessPark != nil {
		t.Error("run/park tracking armed without the sim category")
	}
	h.EventFired(10)
	h.EventFired(20)
	if r.EventsFired() != 2 {
		t.Errorf("EventsFired = %d, want 2", r.EventsFired())
	}
	// Full sim tracing arms everything.
	h = NewSession(Options{Cats: CatSim}).Recorder("m").SimHooks()
	if h == nil || h.ProcessResume == nil || h.ProcessPark == nil || h.ProcessDone == nil {
		t.Fatal("sim category did not arm process tracking")
	}
}
