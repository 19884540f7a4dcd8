package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// testDegradationConfig keeps the sweep small enough for unit tests.
func testDegradationConfig() DegradationConfig {
	cfg := DefaultDegradationConfig()
	cfg.Cells = 8
	cfg.Procs = 4
	cfg.Episodes = 10
	cfg.Rates = []float64{0.02}
	cfg.LogPairs = 10
	cfg.CGN = 200
	cfg.CGNNZ = 2000
	cfg.CGIters = 3
	return cfg
}

// Seed-stability regression: the same fault seed must produce bit-identical
// experiment output across two runs — rendered text and all numeric fields.
func TestDegradationSeedStability(t *testing.T) {
	cfg := testDegradationConfig()
	cfg.Checked = true
	r1, err := RunDegradation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunDegradation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("identical configs produced different results:\n%+v\nvs\n%+v", r1, r2)
	}
	if r1.String() != r2.String() {
		t.Errorf("rendered output differs:\n%s\nvs\n%s", r1, r2)
	}
}

func TestDegradationInjectsAndVerifies(t *testing.T) {
	res, err := RunDegradation(testDegradationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want baseline + 1 rate, got %d rows", len(res.Rows))
	}
	base, faulty := res.Rows[0], res.Rows[1]
	if base.Rate != 0 || base.NACKs != 0 || base.SlotLosses != 0 {
		t.Errorf("baseline row should be fault-free: %+v", base)
	}
	if base.BarrierSlowdown != 1 || base.EPSlowdown != 1 || base.CGSlowdown != 1 {
		t.Errorf("baseline slowdowns should be 1: %+v", base)
	}
	if faulty.NACKs == 0 || faulty.Retries == 0 {
		t.Errorf("faulty row should show NACKs and retries: %+v", faulty)
	}
	if faulty.BarrierSlowdown < 1 || faulty.CGSlowdown < 1 {
		t.Errorf("injected faults should not speed anything up: %+v", faulty)
	}
	if !res.Verified {
		t.Error("faulty runs must compute baseline-identical results")
	}
	if !strings.Contains(res.String(), "baseline-identical") {
		t.Error("String() should report verification")
	}
}

// TestDegradationNilRatesRunsBaselineOnly pins that an explicit empty
// rate list is taken as given, not replaced by the default rates.
func TestDegradationNilRatesRunsBaselineOnly(t *testing.T) {
	cfg := testDegradationConfig()
	cfg.Rates = nil
	res, err := RunDegradation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Rate != 0 {
		t.Errorf("nil Rates ran %d rows, want the baseline only", len(res.Rows))
	}
}

func TestDegradationRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*DegradationConfig)
		want string
	}{
		{"negative rate", func(c *DegradationConfig) { c.Rates = []float64{-0.5} }, "[0, 1]"},
		{"rate above one", func(c *DegradationConfig) { c.Rates = []float64{1.5} }, "[0, 1]"},
		{"too many procs", func(c *DegradationConfig) { c.Procs = 99 }, "procs"},
		{"bad barrier", func(c *DegradationConfig) { c.Barrier = "nope" }, "unknown barrier"},
		{"bad machine", func(c *DegradationConfig) { c.Machine = "cray" }, "unknown machine"},
		{"indivisible ring", func(c *DegradationConfig) { c.Cells = 48; c.Procs = 4 }, "leaf rings"},
	}
	for _, tc := range cases {
		cfg := testDegradationConfig()
		tc.mut(&cfg)
		_, err := RunDegradation(cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// NewMachine now validates instead of letting constructors panic on
// CLI-supplied sizes.
func TestNewMachineValidates(t *testing.T) {
	if _, err := NewMachine(KSR1Kind, 0); err == nil {
		t.Error("0 cells accepted")
	}
	if _, err := NewMachine(KSR1Kind, 48); err == nil || !strings.Contains(err.Error(), "leaf rings") {
		t.Errorf("48 cells on 32-cell leaf rings should be rejected with a friendly error, got %v", err)
	}
	if m, err := NewMachine(KSR1Kind, 64); err != nil || m == nil {
		t.Errorf("64 cells (two leaf rings) rejected: %v", err)
	}
}
