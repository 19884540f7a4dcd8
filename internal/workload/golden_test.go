package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// goldenMachines are the machine kinds a spec may name; the golden runs
// every case on each, so the interpreter's access path is pinned on the
// ring, the bus and the cacheless butterfly alike.
var goldenMachines = []string{"ksr1", "ksr2", "symmetry", "butterfly"}

// goldenSpecs are the traces TestGoldenWorkloadExecute pins: a small
// shared write-heavy uniform trace with a flag barrier, and the
// producer-consumer preset (strided range sweeps between counter
// barriers), cut to 4 procs, 2 iterations and 256-byte segments.
func goldenSpecs(t *testing.T) []Spec {
	t.Helper()
	writeHeavy := Spec{
		Schema: SpecSchema, Name: "write-heavy",
		Cells: 8, Seed: 7,
		Tenants: []Tenant{{
			Name: "w", FirstCell: 0, Procs: 4,
			Arrival: Arrival{Process: ArrivalSteady},
			Phases: []Phase{{
				Name: "mix", Iterations: 2,
				WorkingSetBytes: 1024, AccessesPerIter: 12, ReadPct: 25,
				Sharing: SharingShared, Pattern: PatternUniform,
				ComputePerIter: 200,
				Barrier:        BarrierFlag, BarrierEvery: 1,
			}},
		}},
	}
	pc, err := Preset("producer-consumer")
	if err != nil {
		t.Fatal(err)
	}
	pc.Cells = 8
	pc.Tenants[0].Procs = 4
	pc.Tenants[0].Phases[0].Iterations = 2
	pc.Tenants[0].Phases[0].WorkingSetBytes = 256
	return []Spec{writeHeavy, pc}
}

// TestGoldenWorkloadExecute pins the canonical report and the CatAll
// Chrome trace of every golden spec on every machine kind. The
// interpreter and the access path beneath it must reproduce each event,
// hook call and counter exactly, so both files are byte-identical
// across host-time optimizations. Regenerate after an intentional model
// or instrumentation change with:
//
//	KSRSIM_UPDATE_GOLDEN=1 go test ./internal/workload -run GoldenWorkloadExecute
func TestGoldenWorkloadExecute(t *testing.T) {
	sess := obs.NewSession(obs.Options{Cats: obs.CatAll})
	var reports bytes.Buffer
	for _, s := range goldenSpecs(t) {
		for _, kind := range goldenMachines {
			s.Machine = kind
			tr, err := Compile(s)
			if err != nil {
				t.Fatalf("%s on %s: %v", s.Name, kind, err)
			}
			rep, err := Execute(tr, ExecOptions{Obs: sess.Recorder(s.Name + "/" + kind)})
			if err != nil {
				t.Fatalf("%s on %s: %v", s.Name, kind, err)
			}
			b, err := rep.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			reports.Write(b)
		}
	}
	trace := sess.TraceJSON()
	if err := obs.ValidateTrace(trace); err != nil {
		t.Fatalf("execute trace fails schema validation: %v", err)
	}
	files := []struct {
		name string
		data []byte
	}{
		{"golden_execute_reports.jsonl", reports.Bytes()},
		{"golden_execute_trace.json", trace},
	}
	for _, f := range files {
		path := filepath.Join("testdata", f.name)
		if os.Getenv("KSRSIM_UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.data, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s (%d bytes)", path, len(f.data))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with KSRSIM_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(f.data, want) {
			t.Errorf("%s diverged from golden file (%d bytes vs %d); if intentional, regenerate with KSRSIM_UPDATE_GOLDEN=1",
				f.name, len(f.data), len(want))
		}
	}
}
