package kernels

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestRenderReportShape(t *testing.T) {
	r := Report{
		Benchmark: "EP", Class: ClassA, Size: "2^28 pairs", Procs: 32,
		Time: 1e9, MopsTotal: 350, MopsPerProc: 11, Verified: true,
		MachineName: "ksr1",
	}
	out := RenderReport(r)
	for _, want := range []string{
		"EP Benchmark Completed", "Class", "A", "Processors",
		"Mop/s total", "SUCCESSFUL", "ksr1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	r.Verified = false
	r.Class = 0
	r.Notes = "something odd"
	out = RenderReport(r)
	if !strings.Contains(out, "UNSUCCESSFUL") || !strings.Contains(out, "custom") ||
		!strings.Contains(out, "something odd") {
		t.Errorf("unverified/custom report wrong:\n%s", out)
	}
}

func TestKernelReportsEndToEnd(t *testing.T) {
	m := machine.New(machine.KSR1(8))
	epCfg := DefaultEPConfig(4)
	epCfg.LogPairs = 12
	epRes, err := RunEP(m, epCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := EPReport(epCfg, epRes, "ksr1"); !rep.Verified || rep.MopsTotal <= 0 {
		t.Errorf("EP report: %+v", rep)
	}

	m = machine.New(machine.KSR1(8))
	cgCfg := DefaultCGConfig(4)
	cgCfg.N, cgCfg.NNZ, cgCfg.Iterations = 300, 3000, 25
	cgRes, err := RunCG(m, cgCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := CGReport(cgCfg, cgRes, "ksr1", 1e-6); !rep.Verified {
		t.Errorf("CG report not verified: %+v", rep)
	}

	m = machine.New(machine.KSR1(8))
	isCfg := DefaultISConfig(4)
	isCfg.LogKeys = 12
	isRes, err := RunIS(m, isCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := ISReport(isCfg, isRes, "ksr1"); !rep.Verified || rep.MopsTotal <= 0 {
		t.Errorf("IS report: %+v", rep)
	}

	m = machine.New(machine.KSR1(8))
	spCfg := DefaultSPConfig(4)
	spRes, err := RunSP(m, spCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SPReference(spCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := SPReport(spCfg, spRes, "ksr1", ref); !rep.Verified {
		t.Errorf("SP report not verified: %+v", rep)
	}
	if rep := SPReport(spCfg, spRes, "ksr1", ref+1); rep.Verified {
		t.Error("SP report verified against a wrong checksum")
	}
}
