package metrics

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSpeedupEfficiency(t *testing.T) {
	if got := Speedup(100, 25); got != 4 {
		t.Errorf("Speedup = %v, want 4", got)
	}
	if Speedup(100, 0) != 0 {
		t.Error("zero guard failed")
	}
}

func TestSerialFractionKnownValues(t *testing.T) {
	// Perfect scaling: f = 0.
	if got := SerialFraction(100, 25, 4); got > 1e-12 {
		t.Errorf("perfect scaling serial fraction = %v, want 0", got)
	}
	// No scaling at all (tp == t1): f = 1.
	if got := SerialFraction(100, 100, 4); got < 0.999 {
		t.Errorf("no-scaling serial fraction = %v, want 1", got)
	}
	// Paper Table 1, 2 procs: speedup 1.76131 -> f = 0.135518.
	f := SerialFraction(1638859, 930477, 2)
	if f < 0.135 || f > 0.136 {
		t.Errorf("Karp-Flatt check = %v, want ~0.1355 (paper Table 1)", f)
	}
}

func TestSerialFractionEdge(t *testing.T) {
	if SerialFraction(100, 50, 1) != 0 {
		t.Error("p=1 must yield 0")
	}
}

func TestSuperunitary(t *testing.T) {
	// 4 -> 8 procs with time ratio > 2 is superunitary.
	if !Superunitary(100, 45, 4, 8) {
		t.Error("2.22x over 2x procs not flagged superunitary")
	}
	if Superunitary(100, 60, 4, 8) {
		t.Error("1.67x over 2x procs wrongly flagged")
	}
}

func TestBuildRows(t *testing.T) {
	rows := BuildRows([]Point{{1, 1000}, {2, 600}, {4, 300}})
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	if rows[0].Speedup != 1 {
		t.Errorf("baseline speedup = %v", rows[0].Speedup)
	}
	if rows[2].Speedup < 3.32 || rows[2].Speedup > 3.34 {
		t.Errorf("4-proc speedup = %v, want ~3.33", rows[2].Speedup)
	}
	if rows[0].SerialFraction != 0 {
		t.Error("baseline serial fraction should be zero")
	}
	if BuildRows(nil) != nil {
		t.Error("empty input should yield nil")
	}
}

func TestPropertySerialFractionBounds(t *testing.T) {
	// For 1 <= speedup <= p, serial fraction lies in [0, 1].
	f := func(t1Raw, spRaw uint16, pRaw uint8) bool {
		p := int(pRaw)%31 + 2
		t1 := sim.Time(t1Raw) + 1000
		// Construct tp so that speedup is within [1, p].
		sp := 1 + float64(spRaw%1000)/1000*float64(p-1)
		tp := sim.Time(float64(t1) / sp)
		if tp == 0 {
			return true
		}
		sf := SerialFraction(t1, tp, p)
		return sf >= -0.01 && sf <= 1.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table("Conjugate Gradient", BuildRows([]Point{{1, sim.Second}, {2, sim.Second / 2}}))
	if !strings.Contains(out, "Conjugate Gradient") || !strings.Contains(out, "Serial Fraction") {
		t.Errorf("table missing headers:\n%s", out)
	}
	if !strings.Contains(out, "2.00000") {
		t.Errorf("table missing speedup value:\n%s", out)
	}
}

func TestFigureRendering(t *testing.T) {
	out := Figure("Barrier Performance", "seconds", []Series{
		{Label: "counter", Procs: []int{2, 4}, Values: []float64{1, 2}},
		{Label: "tournament(M)", Procs: []int{2, 4}, Values: []float64{0.5}},
	})
	if !strings.Contains(out, "counter") || !strings.Contains(out, "tournament(M)") {
		t.Errorf("figure missing labels:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("figure missing placeholder for short series:\n%s", out)
	}
}
