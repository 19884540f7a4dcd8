package faults

import (
	"testing"

	"repro/internal/sim"
)

func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if i.SlotLost(0) {
		t.Error("nil injector lost a slot")
	}
	if got := i.DegradedHold(100); got != 100 {
		t.Errorf("nil DegradedHold = %v, want 100", got)
	}
	if i.NACK(0) {
		t.Error("nil injector NACKed")
	}
	if i.Backoff(0) != 0 {
		t.Error("nil injector backed off")
	}
	if i.StallsEnabled() || i.StallRNG() != nil || i.StallTime() != 0 {
		t.Error("nil injector stalls")
	}
	if i.FailStopAt(3) != 0 {
		t.Error("nil injector fail-stops")
	}
	if i.Stats() != (Stats{}) {
		t.Error("nil injector has stats")
	}
	i.NoteFailStop() // must not panic
}

func TestDefaultsFilledIn(t *testing.T) {
	i := New(Config{NACKRate: 0.5}, 1)
	cfg := i.cfg
	if cfg.MaxRetries != DefaultMaxRetries {
		t.Errorf("MaxRetries = %d, want %d", cfg.MaxRetries, DefaultMaxRetries)
	}
	if cfg.BackoffBase != DefaultBackoffBase || cfg.BackoffMax != DefaultBackoffMax {
		t.Errorf("backoff defaults = %v/%v", cfg.BackoffBase, cfg.BackoffMax)
	}
	if cfg.LinkDegradeFactor != DefaultLinkDegradeFactor {
		t.Errorf("LinkDegradeFactor = %v", cfg.LinkDegradeFactor)
	}
	if cfg.CellStallTime != DefaultCellStallTime {
		t.Errorf("CellStallTime = %v", cfg.CellStallTime)
	}
}

func TestDeterministicStreams(t *testing.T) {
	cfg := Uniform(0.3)
	a, b := New(cfg, 42), New(cfg, 42)
	for n := 0; n < 1000; n++ {
		if a.SlotLost(0) != b.SlotLost(0) {
			t.Fatalf("SlotLost diverged at draw %d", n)
		}
		if a.NACK(0) != b.NACK(0) {
			t.Fatalf("NACK diverged at draw %d", n)
		}
		if a.Backoff(n%8) != b.Backoff(n%8) {
			t.Fatalf("Backoff diverged at draw %d", n)
		}
		if a.DegradedHold(8100) != b.DegradedHold(8100) {
			t.Fatalf("DegradedHold diverged at draw %d", n)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	// Drawing heavily from the coherence stream must not perturb the ring
	// stream: the same ring draws come out whether or not NACKs happened
	// in between.
	cfg := Uniform(0.5)
	a, b := New(cfg, 7), New(cfg, 7)
	for n := 0; n < 500; n++ {
		b.NACK(0) // extra coherence draws on b only
	}
	for n := 0; n < 200; n++ {
		if a.SlotLost(0) != b.SlotLost(0) {
			t.Fatalf("ring stream perturbed by coherence draws at %d", n)
		}
	}
}

func TestNACKBoundedByMaxRetries(t *testing.T) {
	i := New(Config{NACKRate: 1.0, MaxRetries: 3}, 1)
	for attempt := 0; attempt < 3; attempt++ {
		if !i.NACK(attempt) {
			t.Fatalf("rate-1.0 NACK(%d) = false below the bound", attempt)
		}
	}
	if i.NACK(3) {
		t.Error("NACK past MaxRetries must be suppressed")
	}
	if i.Stats().MaxRetryRun != 3 {
		t.Errorf("MaxRetryRun = %d, want 3", i.Stats().MaxRetryRun)
	}
}

func TestSlotLossBounded(t *testing.T) {
	i := New(Config{SlotLossRate: 1.0, MaxRetries: 2}, 1)
	losses := 0
	for n := 0; i.SlotLost(n); n++ {
		losses++
	}
	if losses != 2 {
		t.Errorf("consecutive slot losses = %d, want 2", losses)
	}
}

func TestBackoffExponentialAndCapped(t *testing.T) {
	i := New(Config{NACKRate: 1, BackoffBase: 4 * sim.Microsecond, BackoffMax: 32 * sim.Microsecond}, 1)
	prevMax := sim.Time(0)
	for attempt := 0; attempt < 20; attempt++ {
		d := i.Backoff(attempt)
		full := 4 * sim.Microsecond << uint(attempt)
		if full > 32*sim.Microsecond || full <= 0 {
			full = 32 * sim.Microsecond
		}
		if d < full/2 || d >= full {
			t.Errorf("Backoff(%d) = %v, want in [%v, %v)", attempt, d, full/2, full)
		}
		if d > 32*sim.Microsecond {
			t.Errorf("Backoff(%d) = %v exceeds cap", attempt, d)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if st := i.Stats(); st.Retries != 20 || st.BackoffTime == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStallIntervalMean(t *testing.T) {
	i := New(Config{CellStallMean: 10 * sim.Millisecond}, 1)
	if !i.StallsEnabled() {
		t.Fatal("stalls not enabled")
	}
	rng := i.StallRNG()
	var sum sim.Time
	const n = 2000
	for k := 0; k < n; k++ {
		iv := i.StallInterval(rng)
		if iv < 5*sim.Millisecond || iv >= 15*sim.Millisecond {
			t.Fatalf("interval %v outside [mean/2, 3mean/2)", iv)
		}
		sum += iv
	}
	mean := sum / n
	if mean < 9*sim.Millisecond || mean > 11*sim.Millisecond {
		t.Errorf("mean interval = %v, want ~10ms", mean)
	}
}

func TestFailStopLookup(t *testing.T) {
	i := New(Config{FailStop: map[int]sim.Time{2: 5 * sim.Second}}, 1)
	if got := i.FailStopAt(2); got != 5*sim.Second {
		t.Errorf("FailStopAt(2) = %v", got)
	}
	if got := i.FailStopAt(0); got != 0 {
		t.Errorf("FailStopAt(0) = %v, want 0", got)
	}
	i.NoteFailStop()
	if i.Stats().FailStops != 1 {
		t.Errorf("FailStops = %d", i.Stats().FailStops)
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	cases := []Config{
		{SlotLossRate: 0.1},
		{LinkDegradeRate: 0.1},
		{NACKRate: 0.1},
		{CellStallMean: sim.Millisecond},
		{FailStop: map[int]sim.Time{0: 1}},
	}
	for i, c := range cases {
		if !c.Enabled() {
			t.Errorf("case %d not enabled: %+v", i, c)
		}
	}
	if !Uniform(0.01).Enabled() {
		t.Error("Uniform(0.01) not enabled")
	}
}
