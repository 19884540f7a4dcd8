package kernels

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLCGDeterministic(t *testing.T) {
	a, b := NewLCG(DefaultNASSeed), NewLCG(DefaultNASSeed)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed LCGs diverged")
		}
	}
}

func TestLCGRange(t *testing.T) {
	g := NewLCG(DefaultNASSeed)
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v <= 0 || v >= 1 {
			t.Fatalf("LCG value %v out of (0,1)", v)
		}
	}
}

func TestLCGJumpMatchesSequential(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 17, 1000, 123456} {
		seq := NewLCG(DefaultNASSeed)
		for i := uint64(0); i < n; i++ {
			seq.Next()
		}
		jmp := JumpedLCG(DefaultNASSeed, n)
		if seq.x != jmp.x {
			t.Errorf("Jump(%d) state %d != sequential %d", n, jmp.x, seq.x)
		}
	}
}

func TestPropertyJumpComposes(t *testing.T) {
	f := func(a, b uint16) bool {
		g1 := JumpedLCG(DefaultNASSeed, uint64(a)+uint64(b))
		g2 := JumpedLCG(DefaultNASSeed, uint64(a))
		g2.Jump(uint64(b))
		return g1.x == g2.x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCGRoughUniformity(t *testing.T) {
	g := NewLCG(DefaultNASSeed)
	const buckets, draws = 10, 100000
	var hist [buckets]int
	for i := 0; i < draws; i++ {
		hist[int(g.Next()*buckets)]++
	}
	for i, h := range hist {
		if h < draws/buckets*8/10 || h > draws/buckets*12/10 {
			t.Errorf("bucket %d = %d, grossly non-uniform", i, h)
		}
	}
}

func TestGaussianPair(t *testing.T) {
	if _, _, ok := GaussianPair(0.99, 0.99); ok {
		t.Error("pair outside unit circle accepted")
	}
	gx, gy, ok := GaussianPair(0.6, 0.6)
	if !ok {
		t.Fatal("pair inside unit circle rejected")
	}
	if math.IsNaN(gx) || math.IsNaN(gy) {
		t.Error("NaN deviates")
	}
	// Degenerate center point must be rejected (log(0)).
	if _, _, ok := GaussianPair(0.5, 0.5); ok {
		t.Error("t=0 accepted")
	}
}

func TestGaussianMomentsRough(t *testing.T) {
	g := NewLCG(DefaultNASSeed)
	var sum, sumSq float64
	n := 0
	for i := 0; i < 200000; i++ {
		gx, gy, ok := GaussianPair(g.Next(), g.Next())
		if !ok {
			continue
		}
		sum += gx + gy
		sumSq += gx*gx + gy*gy
		n += 2
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("Gaussian variance = %v, want ~1", variance)
	}
}
