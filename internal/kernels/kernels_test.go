package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

// --- EP ---

func TestEPResultIndependentOfProcCount(t *testing.T) {
	// The jump-ahead decomposition must make the histogram identical for
	// any processor count.
	run := func(procs int) EPResult {
		m := machine.New(machine.KSR1(32))
		cfg := DefaultEPConfig(procs)
		cfg.LogPairs = 12
		res, err := RunEP(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	for _, p := range []int{2, 5, 8, 32} {
		rp := run(p)
		if rp.Annuli != r1.Annuli || rp.Accepted != r1.Accepted {
			t.Errorf("EP with %d procs: counts %v differ from serial %v", p, rp.Annuli, r1.Annuli)
		}
		if math.Abs(rp.SumX-r1.SumX) > 1e-9 || math.Abs(rp.SumY-r1.SumY) > 1e-9 {
			t.Errorf("EP with %d procs: sums differ", p)
		}
	}
}

func TestEPNearLinearSpeedup(t *testing.T) {
	run := func(procs int) EPResult {
		m := machine.New(machine.KSR1(32))
		cfg := DefaultEPConfig(procs)
		cfg.LogPairs = 14
		res, err := RunEP(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t1 := run(1).Elapsed
	t8 := run(8).Elapsed
	speedup := float64(t1) / float64(t8)
	if speedup < 7.0 {
		t.Errorf("EP speedup at 8 procs = %.2f, want near-linear (>= 7)", speedup)
	}
}

func TestEPMFLOPSNearPaperRate(t *testing.T) {
	m := machine.New(machine.KSR1(1))
	cfg := DefaultEPConfig(1)
	cfg.LogPairs = 12
	res, err := RunEP(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~11 MFLOPS sustained per processor.
	if res.MFLOPS < 8 || res.MFLOPS > 14 {
		t.Errorf("EP single-proc rate = %.1f MFLOPS, want ~11", res.MFLOPS)
	}
}

func TestEPAcceptanceRate(t *testing.T) {
	m := machine.New(machine.KSR1(1))
	cfg := DefaultEPConfig(1)
	cfg.LogPairs = 14
	res, err := RunEP(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.Accepted) / float64(res.Pairs)
	if math.Abs(rate-math.Pi/4) > 0.02 {
		t.Errorf("acceptance rate %.3f, want ~pi/4", rate)
	}
}

func TestEPRejectsBadConfig(t *testing.T) {
	m := machine.New(machine.KSR1(2))
	if _, err := RunEP(m, EPConfig{LogPairs: 0, Procs: 1}); err == nil {
		t.Error("LogPairs=0 accepted")
	}
}

// --- sparse / CG ---

func TestRandomSPDProperties(t *testing.T) {
	a := RandomSPD(200, 2000, 5)
	if !a.IsSymmetric() {
		t.Fatal("matrix not symmetric")
	}
	// Diagonal dominance implies positive definiteness; check x^T A x > 0
	// for a few random x.
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	g := NewLCG(DefaultNASSeed)
	for trial := 0; trial < 5; trial++ {
		for i := range x {
			x[i] = g.Next() - 0.5
		}
		a.Mul(y, x)
		if Dot(x, y) <= 0 {
			t.Fatal("x^T A x <= 0: not positive definite")
		}
	}
}

func TestPropertySPDRowStartMonotone(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 10
		a := RandomSPD(n, n*8, seed)
		if len(a.RowStart) != n+1 || a.RowStart[0] != 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if a.RowStart[i+1] <= a.RowStart[i] {
				return false // every row has at least the diagonal
			}
		}
		return int(a.RowStart[n]) == a.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCGConverges(t *testing.T) {
	m := machine.New(machine.KSR1(4))
	cfg := DefaultCGConfig(4)
	cfg.N, cfg.NNZ, cfg.Iterations = 400, 4000, 25
	res, err := RunCG(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-6 {
		t.Errorf("CG residual after 25 iterations = %g, want < 1e-6", res.Residual)
	}
	if res.Zeta == 0 {
		t.Error("zeta not computed")
	}
}

func TestCGSameAnswerAnyProcCount(t *testing.T) {
	run := func(procs int) CGResult {
		m := machine.New(machine.KSR1(8))
		cfg := DefaultCGConfig(procs)
		cfg.N, cfg.NNZ, cfg.Iterations = 300, 3000, 8
		res, err := RunCG(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	for _, p := range []int{2, 4, 8} {
		rp := run(p)
		if math.Abs(rp.Residual-r1.Residual) > 1e-9*math.Max(1, r1.Residual) {
			t.Errorf("CG residual with %d procs = %g, serial %g", p, rp.Residual, r1.Residual)
		}
	}
}

func TestCGSpeedsUp(t *testing.T) {
	run := func(procs int) CGResult {
		m := machine.New(machine.KSR1(16))
		cfg := DefaultCGConfig(procs)
		cfg.N, cfg.NNZ, cfg.Iterations = 1400, 20000, 5
		res, err := RunCG(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t1, t8 := run(1).Elapsed, run(8).Elapsed
	if float64(t1)/float64(t8) < 3 {
		t.Errorf("CG speedup at 8 procs = %.2f, want > 3", float64(t1)/float64(t8))
	}
}

func TestCGRejectsBadConfig(t *testing.T) {
	m := machine.New(machine.KSR1(2))
	if _, err := RunCG(m, CGConfig{N: 1, Procs: 2, Iterations: 1}); err == nil {
		t.Error("N < procs accepted")
	}
}

// --- IS ---

func TestISSortsCorrectly(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 7, 8} {
		m := machine.New(machine.KSR1(8))
		cfg := DefaultISConfig(procs)
		cfg.LogKeys = 12
		res, err := RunIS(m, cfg)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if !res.Sorted {
			t.Errorf("procs=%d: rank permutation does not sort", procs)
		}
	}
}

func TestISSerialPhaseGrowsWithProcs(t *testing.T) {
	run := func(procs int) ISResult {
		m := machine.New(machine.KSR1(16))
		cfg := DefaultISConfig(procs)
		cfg.LogKeys = 13
		res, err := RunIS(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	s2, s16 := run(2).SerialTime, run(16).SerialTime
	if s16 <= s2 {
		t.Errorf("phase-4 serial time did not grow: %v at 2 procs, %v at 16", s2, s16)
	}
}

func TestISSpeedsUpModerately(t *testing.T) {
	run := func(procs int) ISResult {
		m := machine.New(machine.KSR1(8))
		cfg := DefaultISConfig(procs)
		res, err := RunIS(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t1, t8 := run(1).Elapsed, run(8).Elapsed
	sp := float64(t1) / float64(t8)
	if sp < 2 {
		t.Errorf("IS speedup at 8 procs = %.2f, want > 2", sp)
	}
}

func TestISRejectsBadConfig(t *testing.T) {
	m := machine.New(machine.KSR1(4))
	if _, err := RunIS(m, ISConfig{LogKeys: 10, LogMaxKey: 1, Procs: 4}); err == nil {
		t.Error("maxKey < procs accepted")
	}
}

func TestVerifyRanksRejectsBadPermutations(t *testing.T) {
	keys := []int32{3, 1, 2}
	if !verifyRanks(keys, []int32{2, 0, 1}) {
		t.Error("valid ranks rejected")
	}
	if verifyRanks(keys, []int32{0, 0, 1}) {
		t.Error("duplicate ranks accepted")
	}
	if verifyRanks(keys, []int32{0, 2, 1}) {
		t.Error("non-sorting ranks accepted")
	}
}

// --- penta / SP ---

func TestPentaSolveAgainstMultiply(t *testing.T) {
	for _, n := range []int{4, 5, 16, 63} {
		s := NewPentaSolver(n)
		// Manufacture: y = M x, then Solve(y) must recover x.
		x := make([]float64, n)
		g := NewLCG(42)
		for i := range x {
			x[i] = g.Next()*2 - 1
		}
		y := PentaMulAdd(x, 0.05)
		s.SetConstant(SPStencil(0.05))
		s.Solve(y)
		for i := range x {
			if math.Abs(y[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: solve mismatch at %d: %g vs %g", n, i, y[i], x[i])
			}
		}
	}
}

func TestPropertyPentaRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8, epsRaw uint8) bool {
		n := int(nRaw)%60 + 5
		eps := float64(epsRaw%20+1) / 100
		g := NewLCG(seed | 1)
		x := make([]float64, n)
		for i := range x {
			x[i] = g.Next()*2 - 1
		}
		y := PentaMulAdd(x, eps)
		s := NewPentaSolver(n)
		s.SetConstant(SPStencil(eps))
		s.Solve(y)
		for i := range x {
			if math.Abs(y[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSPMatchesSerialReference(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		m := machine.New(machine.KSR1(8))
		cfg := DefaultSPConfig(procs)
		res, err := RunSP(m, cfg)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		want, err := SPReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("procs=%d: checksum %g, reference %g", procs, res.Checksum, want)
		}
	}
}

func TestSPOptionsPreserveAnswer(t *testing.T) {
	base := DefaultSPConfig(4)
	want, err := SPReference(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range []func(*SPConfig){
		func(c *SPConfig) { c.Padding = true },
		func(c *SPConfig) { c.Prefetch = true },
		func(c *SPConfig) { c.Poststore = true },
		func(c *SPConfig) { c.Padding, c.Prefetch = true, true },
	} {
		cfg := base
		mod(&cfg)
		m := machine.New(machine.KSR1(8))
		res, err := RunSP(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Checksum-want) > 1e-9*math.Abs(want) {
			t.Errorf("optimization changed the answer: %+v", cfg)
		}
	}
}

func TestSPSpeedsUp(t *testing.T) {
	run := func(procs int) SPResult {
		m := machine.New(machine.KSR1(8))
		cfg := DefaultSPConfig(procs)
		res, err := RunSP(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t1, t8 := run(1).Elapsed, run(8).Elapsed
	if float64(t1)/float64(t8) < 4 {
		t.Errorf("SP speedup at 8 procs = %.2f, want > 4", float64(t1)/float64(t8))
	}
}

func TestSPPaddingReducesSubCacheAllocs(t *testing.T) {
	// Use a grid whose plane size (64*64*8 = 32 KB) aliases into 4
	// sub-cache sets on z-sweeps: padding must cut block allocations.
	run := func(padding bool) SPResult {
		m := machine.New(machine.KSR1(4))
		cfg := SPConfig{
			Nx: 64, Ny: 64, Nz: 16, Iterations: 1, Procs: 4,
			Eps: 0.05, FlopsPerPoint: 80, Padding: padding,
		}
		res, err := RunSP(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unpadded, padded := run(false), run(true)
	if unpadded.SubAllocs <= padded.SubAllocs {
		t.Errorf("padding did not reduce sub-cache allocations: %d vs %d",
			unpadded.SubAllocs, padded.SubAllocs)
	}
	if unpadded.Elapsed <= padded.Elapsed {
		t.Errorf("padding did not speed up SP: %v vs %v", unpadded.Elapsed, padded.Elapsed)
	}
}

func TestSPPoststoreSlowsDown(t *testing.T) {
	// The paper's counter-intuitive finding: poststore HURTS SP.
	run := func(ps bool) SPResult {
		m := machine.New(machine.KSR1(8))
		cfg := DefaultSPConfig(8)
		cfg.Poststore = ps
		res, err := RunSP(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	if on.Elapsed <= off.Elapsed {
		t.Errorf("poststore did not slow SP down: %v (on) vs %v (off)", on.Elapsed, off.Elapsed)
	}
}

func TestSPRejectsBadConfig(t *testing.T) {
	m := machine.New(machine.KSR1(4))
	if _, err := RunSP(m, SPConfig{Nx: 2, Ny: 2, Nz: 2, Iterations: 1, Procs: 1}); err == nil {
		t.Error("tiny grid accepted")
	}
}

func TestCGOuterIterationsRefineZeta(t *testing.T) {
	run := func(outer int) CGResult {
		m := machine.New(machine.KSR1(4))
		cfg := DefaultCGConfig(4)
		cfg.N, cfg.NNZ, cfg.Iterations = 300, 3000, 12
		cfg.OuterIterations = outer
		res, err := RunCG(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	three := run(3)
	if three.Elapsed <= one.Elapsed {
		t.Error("outer iterations did not add work")
	}
	if three.Zeta == 0 || math.IsNaN(three.Zeta) {
		t.Errorf("zeta after power iteration = %v", three.Zeta)
	}
	// Power iteration keeps the answer consistent across proc counts.
	m := machine.New(machine.KSR1(8))
	cfg := DefaultCGConfig(8)
	cfg.N, cfg.NNZ, cfg.Iterations, cfg.OuterIterations = 300, 3000, 12, 3
	res8, err := RunCG(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res8.Zeta-three.Zeta) > 1e-6*math.Abs(three.Zeta) {
		t.Errorf("zeta differs across proc counts: %v vs %v", res8.Zeta, three.Zeta)
	}
}

func TestToColumnFormatPreservesMatrix(t *testing.T) {
	a := RandomSPD(120, 1200, 11)
	c := a.ToColumnFormat()
	if int(c.ColStart[c.N]) != a.NNZ() {
		t.Fatalf("column format has %d nonzeros, want %d", c.ColStart[c.N], a.NNZ())
	}
	// Multiply via columns and compare with the row-format product.
	x := make([]float64, a.N)
	g := NewLCG(5)
	for i := range x {
		x[i] = g.Next()
	}
	want := make([]float64, a.N)
	a.Mul(want, x)
	got := make([]float64, a.N)
	for j := 0; j < c.N; j++ {
		for k := c.ColStart[j]; k < c.ColStart[j+1]; k++ {
			got[c.RowIdx[k]] += c.Vals[k] * x[j]
		}
	}
	if !vectorsClose(got, want) {
		t.Error("column-format product differs from row-format product")
	}
}

func TestMatvecComparisonShape(t *testing.T) {
	res, err := RunMatvecComparison(256, 2500, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("one of the parallelizations computed a wrong product")
	}
	// The paper's argument: per-element synchronization makes the column
	// parallelization drastically slower.
	if res.ColumnFormat < 5*res.RowFormat {
		t.Errorf("column format %v not clearly slower than row format %v",
			res.ColumnFormat, res.RowFormat)
	}
}

func TestMatvecComparisonRejectsBadConfig(t *testing.T) {
	if _, err := RunMatvecComparison(4, 40, 8, 1); err == nil {
		t.Error("n < procs accepted")
	}
}

func TestClassPresets(t *testing.T) {
	if c, err := ParseClass("A"); err != nil || c != ClassA {
		t.Fatal("ParseClass(A) failed")
	}
	if _, err := ParseClass("Z"); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := ParseClass("AA"); err == nil {
		t.Error("long class accepted")
	}
	ep, err := EPClass(ClassA, 4)
	if err != nil || ep.LogPairs != 28 {
		t.Errorf("EP class A = %+v, %v", ep, err)
	}
	cg, err := CGClass(ClassA, 4)
	if err != nil || cg.N != 14000 || cg.NNZ != 2030000 {
		t.Errorf("CG class A = %+v", cg)
	}
	is, err := ISClass(ClassA, 4)
	if err != nil || is.LogKeys != 23 || is.LogMaxKey != 19 {
		t.Errorf("IS class A = %+v", is)
	}
	sp, err := SPClass(ClassA, 4)
	if err != nil || sp.Nx != 64 {
		t.Errorf("SP class A = %+v", sp)
	}
	for _, bad := range []func() error{
		func() error { _, e := EPClass('Z', 1); return e },
		func() error { _, e := CGClass('Z', 1); return e },
		func() error { _, e := ISClass('Z', 1); return e },
		func() error { _, e := SPClass('Z', 1); return e },
	} {
		if bad() == nil {
			t.Error("unknown class accepted by a preset")
		}
	}
	// Class S runs end-to-end (quick smoke on small machines).
	m := machine.New(machine.KSR1(4))
	isS, _ := ISClass(ClassS, 4)
	isS.LogKeys = 12 // trim for test speed; class geometry otherwise
	res, err := RunIS(m, isS)
	if err != nil || !res.Sorted {
		t.Errorf("class-S-shaped IS failed: %v", err)
	}
}
