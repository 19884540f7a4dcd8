package machine

import (
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestMachineObservedRun checks the full wiring: an observed machine
// attaches its recorder, arms the sampler, emits a valid trace, and
// snapshots final counters for the manifest.
func TestMachineObservedRun(t *testing.T) {
	sess := obs.NewSession(obs.Options{Cats: obs.CatAll, SampleEvery: 50_000})
	cfg := KSR1(2)
	cfg.Obs = sess.Recorder("test/m")
	m := New(cfg)
	if m.Obs() == nil {
		t.Fatal("machine did not keep its recorder")
	}
	r := m.Alloc("data", 16*memory.SubPageSize)
	if _, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 1 {
			p.ReadRange(r.Base, 16, memory.SubPageSize)
			return
		}
		p.Compute(5_000_000)
		p.ReadRange(r.Base, 16, memory.SubPageSize)
	}); err != nil {
		t.Fatal(err)
	}

	trace := sess.TraceJSON()
	if err := obs.ValidateTrace(trace); err != nil {
		t.Fatalf("machine trace fails validation: %v", err)
	}
	for _, want := range []string{"ring.tx", "fill.read", "run", "cell0"} {
		if !containsStr(trace, want) {
			t.Errorf("trace missing %q", want)
		}
	}

	recs := sess.MachineRecords()
	if len(recs) != 1 {
		t.Fatalf("MachineRecords = %d entries, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Label != "test/m" || rec.Machine != "ksr1" || rec.Cells != 2 {
		t.Fatalf("machine record identity wrong: %+v", rec)
	}
	if rec.SimTimeNs <= 0 {
		t.Error("final sim time not captured")
	}
	counters := map[string]float64{}
	for _, c := range rec.Counters {
		counters[c.Name] = c.Value
	}
	if counters["fabric.transactions"] == 0 || counters["mon.accesses"] == 0 {
		t.Errorf("final counters missing activity: %v", counters)
	}

	csv := sess.TelemetryCSV()
	if !containsStr(csv, "test/m,") {
		t.Error("telemetry CSV has no sampled rows")
	}
}

// TestUnobservedMachineHasNoHooks pins the zero-overhead property at the
// wiring level: without a recorder nothing in the stack is armed.
func TestUnobservedMachineHasNoHooks(t *testing.T) {
	m := New(KSR1(2))
	if m.Obs() != nil {
		t.Fatal("unobserved machine has a recorder")
	}
	r := m.Alloc("data", memory.SubPageSize)
	el, err := m.Run(1, func(p *Proc) {
		p.Read(r.Word(0))
	})
	if err != nil || el <= sim.Time(0) {
		t.Fatalf("plain run failed: el=%v err=%v", el, err)
	}
}

func containsStr(b []byte, s string) bool { return strings.Contains(string(b), s) }
