package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilSessionAndRecorderAreSafe(t *testing.T) {
	var s *Session
	if r := s.Recorder("x"); r != nil {
		t.Fatalf("nil session produced a recorder")
	}
	if rows := s.Rows(); rows != nil {
		t.Fatalf("nil session produced rows: %v", rows)
	}
	var r *Recorder
	if h := r.MachineHooks(); h != nil {
		t.Fatalf("nil recorder produced machine hooks")
	}
	if h := r.DirectoryHooks(); h != nil {
		t.Fatalf("nil recorder produced directory hooks")
	}
}

func TestChargeAndAccessAttribution(t *testing.T) {
	s := NewSession()
	h := s.Recorder("m").MachineHooks()
	h.Charge(0, PhaseCompute, 100)
	h.Charge(0, PhaseMemory, 40)
	h.Access(0, PhaseMemory, 60)
	h.Charge(1, PhaseOther, 7)
	h.Charge(1, PhaseCompute, 0)  // zero charges are dropped
	h.Charge(1, PhaseCompute, -5) // as are negative ones

	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if got := rows[0].Phase[PhaseCompute]; got != 100 {
		t.Errorf("cell0 compute = %d, want 100", got)
	}
	if got := rows[0].Phase[PhaseMemory]; got != 100 {
		t.Errorf("cell0 memory = %d, want 100", got)
	}
	if rows[0].Total != 200 {
		t.Errorf("cell0 total = %d, want 200", rows[0].Total)
	}
	if got := rows[1].Phase[PhaseOther]; got != 7 {
		t.Errorf("cell1 other = %d, want 7", got)
	}
}

func TestSpanReattribution(t *testing.T) {
	s := NewSession()
	h := s.Recorder("m").MachineHooks()

	// Outside any span, charges keep their natural phase.
	h.Charge(0, PhaseCompute, 10)

	// Inside a barrier span everything lands on barrier — including
	// nested lock spans (outermost wins).
	tok := h.SpanBegin(0, PhaseBarrier)
	h.Charge(0, PhaseCompute, 20)
	h.Access(0, PhaseMemory, 30)
	inner := h.SpanBegin(0, PhaseLock)
	h.Charge(0, PhaseCompute, 5)
	h.SpanEnd(0, inner)
	h.Charge(0, PhaseMemory, 2)
	h.SpanEnd(0, tok)

	// After the span closes, natural phases return.
	h.Charge(0, PhaseCompute, 1)

	row := s.Rows()[0]
	if got := row.Phase[PhaseBarrier]; got != 57 {
		t.Errorf("barrier = %d, want 57", got)
	}
	if got := row.Phase[PhaseCompute]; got != 11 {
		t.Errorf("compute = %d, want 11", got)
	}
	if got := row.Phase[PhaseLock]; got != 0 {
		t.Errorf("lock = %d, want 0 (outermost span wins)", got)
	}
}

func TestBackoffSubtractedFromEnclosingAccess(t *testing.T) {
	s := NewSession()
	rec := s.Recorder("m")
	h := rec.MachineHooks()
	dh := rec.DirectoryHooks()

	// A coherent access that NACKed twice: the directory reports the two
	// backoff sleeps, then the access reports the full requester-observed
	// latency. Backoff must not be counted twice.
	dh.Backoff(0, 30)
	dh.Backoff(0, 60)
	h.Access(0, PhaseMemory, 250)

	row := s.Rows()[0]
	if got := row.Phase[PhaseBackoff]; got != 90 {
		t.Errorf("backoff = %d, want 90", got)
	}
	if got := row.Phase[PhaseMemory]; got != 160 {
		t.Errorf("memory = %d, want 160 (250 - 90 backoff)", got)
	}
	if row.Total != 250 {
		t.Errorf("total = %d, want 250", row.Total)
	}

	// Pending is cleared: the next access is charged in full.
	h.Access(0, PhaseMemory, 10)
	if got := s.Rows()[0].Phase[PhaseMemory]; got != 170 {
		t.Errorf("memory after second access = %d, want 170", got)
	}

	// Backoff exceeding the reported latency clamps at zero rather than
	// going negative.
	dh.Backoff(1, 100)
	h.Access(1, PhaseMemory, 40)
	row = s.Rows()[1]
	if got := row.Phase[PhaseMemory]; got != 0 {
		t.Errorf("cell1 memory = %d, want 0 (clamped)", got)
	}
	if got := row.Phase[PhaseBackoff]; got != 100 {
		t.Errorf("cell1 backoff = %d, want 100", got)
	}
}

func TestBackoffKeepsOwnPhaseInsideSpan(t *testing.T) {
	s := NewSession()
	rec := s.Recorder("m")
	h := rec.MachineHooks()
	dh := rec.DirectoryHooks()

	tok := h.SpanBegin(0, PhaseLock)
	dh.Backoff(0, 25)
	h.Access(0, PhaseMemory, 100)
	h.SpanEnd(0, tok)

	row := s.Rows()[0]
	if got := row.Phase[PhaseBackoff]; got != 25 {
		t.Errorf("backoff = %d, want 25", got)
	}
	if got := row.Phase[PhaseLock]; got != 75 {
		t.Errorf("lock = %d, want 75 (access re-attributed, backoff subtracted)", got)
	}
}

func TestRowsSortedByLabelThenCell(t *testing.T) {
	s := NewSession()
	// Register out of order; Rows must come back label-sorted.
	hb := s.Recorder("b").MachineHooks()
	ha := s.Recorder("a").MachineHooks()
	hb.Charge(1, PhaseCompute, 1)
	hb.Charge(0, PhaseCompute, 1)
	ha.Charge(2, PhaseCompute, 1)

	rows := s.Rows()
	want := []struct {
		label string
		cell  int
	}{{"a", 2}, {"b", 0}, {"b", 1}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i].Label != w.label || rows[i].Cell != w.cell {
			t.Errorf("rows[%d] = (%s,%d), want (%s,%d)", i, rows[i].Label, rows[i].Cell, w.label, w.cell)
		}
	}
}

func TestUntouchedCellsOmitted(t *testing.T) {
	s := NewSession()
	h := s.Recorder("m").MachineHooks()
	// Touch cell 3 only; cells 0..2 exist in the dense slice but carry no
	// charges and must not appear.
	h.Charge(3, PhaseCompute, 1)
	rows := s.Rows()
	if len(rows) != 1 || rows[0].Cell != 3 {
		t.Fatalf("rows = %+v, want exactly cell 3", rows)
	}
}

func buildSession() *Session {
	s := NewSession()
	rec := s.Recorder("ep/p=2")
	h := rec.MachineHooks()
	dh := rec.DirectoryHooks()
	h.Charge(0, PhaseCompute, 700)
	h.Access(0, PhaseMemory, 200)
	tok := h.SpanBegin(0, PhaseBarrier)
	h.Charge(0, PhaseCompute, 100)
	h.SpanEnd(0, tok)
	h.Charge(1, PhaseCompute, 650)
	dh.Backoff(1, 50)
	h.Access(1, PhaseMemory, 300)
	return s
}

func TestReportAndCSV(t *testing.T) {
	s := buildSession()

	rep := s.Report(10)
	for _, wantSub := range []string{
		"2 cells, 1950 ns total",
		"compute",
		"barrier",
		"ep/p=2",
		"69.23%", // compute share of the 1950 ns total
	} {
		if !strings.Contains(rep, wantSub) {
			t.Errorf("report missing %q:\n%s", wantSub, rep)
		}
	}

	csv := s.CSV()
	wantCSV := "label,cell,phase,ns\n" +
		"ep/p=2,0,compute,700\n" +
		"ep/p=2,0,memory,200\n" +
		"ep/p=2,0,lock,0\n" +
		"ep/p=2,0,barrier,100\n" +
		"ep/p=2,0,cross,0\n" +
		"ep/p=2,0,backoff,0\n" +
		"ep/p=2,0,other,0\n" +
		"ep/p=2,1,compute,650\n" +
		"ep/p=2,1,memory,250\n" +
		"ep/p=2,1,lock,0\n" +
		"ep/p=2,1,barrier,0\n" +
		"ep/p=2,1,cross,0\n" +
		"ep/p=2,1,backoff,50\n" +
		"ep/p=2,1,other,0\n"
	if csv != wantCSV {
		t.Errorf("CSV mismatch:\ngot:\n%s\nwant:\n%s", csv, wantCSV)
	}

	// Top-N truncation: topN=1 keeps the highest-total cell (cell 0, 1000
	// vs cell 1, 950).
	rep1 := s.Report(1)
	if !strings.Contains(rep1, "top 1 cells") {
		t.Errorf("topN=1 report missing truncated header:\n%s", rep1)
	}
}

func TestPprofDeterministicAndGunzips(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSession().Pprof(&a); err != nil {
		t.Fatalf("Pprof: %v", err)
	}
	if err := buildSession().Pprof(&b); err != nil {
		t.Fatalf("Pprof: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("pprof output differs between identical sessions")
	}

	zr, err := gzip.NewReader(&a)
	if err != nil {
		t.Fatalf("gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	for _, wantSub := range []string{"simtime", "nanoseconds", "compute", "cell0", "ep/p=2"} {
		if !bytes.Contains(raw, []byte(wantSub)) {
			t.Errorf("decoded pprof proto missing %q", wantSub)
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	want := []string{"compute", "memory", "lock", "barrier", "cross", "backoff", "other"}
	if NumPhases != len(want) {
		t.Fatalf("NumPhases = %d, want %d", NumPhases, len(want))
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if ph.String() != want[ph] {
			t.Errorf("Phase(%d).String() = %q, want %q", ph, ph.String(), want[ph])
		}
	}
	if PhaseNone.String() != "none" {
		t.Errorf("PhaseNone.String() = %q", PhaseNone.String())
	}
}

func TestPhaseTotals(t *testing.T) {
	s := buildSession()
	totals, total := s.PhaseTotals()
	if total != 1950 {
		t.Fatalf("total = %d, want 1950", total)
	}
	var sum sim.Time
	for _, d := range totals {
		sum += d
	}
	if sum != total {
		t.Fatalf("phase totals sum %d != total %d", sum, total)
	}
}
