package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/memory"
	"repro/internal/sim"
)

func TestNewBigValidation(t *testing.T) {
	if _, err := NewBig(Symmetry(4)); err == nil {
		t.Fatal("bus machine accepted")
	}
	if _, err := NewBig(KSR2Big(KSR2MaxCells + 32)); err == nil {
		t.Fatal("over-limit cell count accepted")
	}
	// KSR2 leaves ARDCross at the calibrated 0 — a multi-ring big machine
	// must reject it.
	if _, err := NewBig(KSR2(64)); err == nil {
		t.Fatal("multi-ring config without ARD crossing cost accepted")
	}
	cfg := KSR2Big(64)
	cfg.Obs = nil
	if _, err := NewBig(cfg); err != nil {
		t.Fatalf("KSR2Big(64): %v", err)
	}
}

func TestBigMachineSingleRing(t *testing.T) {
	b, err := NewBig(KSR2Big(8))
	if err != nil {
		t.Fatal(err)
	}
	if b.Rings() != 1 || b.RingSize() != 8 {
		t.Fatalf("got %d rings of %d cells", b.Rings(), b.RingSize())
	}
	var sum uint64
	elapsed, err := b.Run(8, func(ring int, p *Proc) {
		p.Compute(100)
		sum += uint64(ring*b.RingSize() + p.CellID())
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 || sum != 28 {
		t.Fatalf("elapsed=%v sum=%d", elapsed, sum)
	}
}

// bigRun drives a 3-ring KSR-2 workload exercising every cross-ring
// primitive and returns a digest of everything observable.
func bigRun(t *testing.T, workers int) string {
	t.Helper()
	b, err := NewBig(KSR2Big(96))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Coordinator().SetWorkers(workers)

	// One shared slot per ring, homed in that ring's own address space.
	slots := make([]memory.Addr, b.Rings())
	for r := 0; r < b.Rings(); r++ {
		slots[r] = b.Ring(r).AllocPadded(fmt.Sprintf("slot%d", r), 1).Base
	}
	arr := b.NewArrivals(0, "reduce")

	lats := make([]sim.Time, b.Rings())
	elapsed, err := b.Run(4, func(ring int, p *Proc) {
		p.WriteWord(slots[ring], uint64(ring))
		p.Compute(int64(50 * (ring + p.CellID() + 1)))
		if p.CellID() != 0 {
			return
		}
		if ring == 0 {
			// Root: fetch each remote ring's slot, then await their posts.
			for r := 1; r < b.Rings(); r++ {
				lats[r] = b.CrossFetch(p, 0, r, slots[r])
			}
			arr.Await(p.Process(), b.Rings()-1)
		} else {
			b.CrossPost(p, ring, 0, slots[ring], arr.Arrive)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tx, mean := b.CrossStats()
	if tx == 0 || mean == 0 {
		t.Fatalf("workers=%d: no cross traffic recorded (tx=%d mean=%v)", workers, tx, mean)
	}
	if bpc := b.BytesPerCell(); bpc <= 0 {
		t.Fatalf("workers=%d: BytesPerCell=%v", workers, bpc)
	}
	mon := b.TotalMonitor()
	return fmt.Sprintf("elapsed=%v lats=%v tx=%d mean=%v arrivals=%d acc=%d remote=%d",
		elapsed, lats, tx, mean, arr.Count(), mon.Accesses, mon.RemoteAccesses)
}

func TestBigMachineDeterministicAcrossWorkers(t *testing.T) {
	ref := bigRun(t, 1)
	for _, w := range []int{2, 4, 16} {
		if got := bigRun(t, w); got != ref {
			t.Fatalf("workers=%d diverged:\n  got %s\n want %s", w, got, ref)
		}
	}
}

func TestBigMachineCrossFetchLatencyFloor(t *testing.T) {
	b, err := NewBig(KSR2Big(64))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr := b.Ring(1).AllocWords("probe", 1).Base
	var lat sim.Time
	if _, err := b.Run(1, func(ring int, p *Proc) {
		if ring == 0 {
			lat = b.CrossFetch(p, 0, 1, addr)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Unloaded: three rotations (src leaf, level-1, dst leaf) + three ARD
	// crossings, each 8750 ns on the KSR presets.
	cfg := b.cfg.Ring
	floor := 3*(cfg.SlotHold+cfg.Overhead) + 3*cfg.ARDCross
	if lat < floor {
		t.Fatalf("cross-ring fetch latency %v below unloaded floor %v", lat, floor)
	}
	if lat > 2*floor {
		t.Fatalf("unloaded cross-ring fetch latency %v far above floor %v", lat, floor)
	}
}

func TestBigMachineSeedsDecorrelated(t *testing.T) {
	seen := map[uint64]bool{}
	for r := 0; r < 34; r++ {
		s := mixSeed(1, r)
		if seen[s] {
			t.Fatalf("ring %d reuses seed %d", r, s)
		}
		seen[s] = true
	}
	if reflect.DeepEqual(mixSeed(1, 0), mixSeed(2, 0)) {
		t.Fatal("top-level seed does not reach ring seeds")
	}
}
