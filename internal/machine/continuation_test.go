package machine

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// A fail-stop that comes due while a cell waits inside AcquireSubPage
// halts that cell in its own goroutine. The retry that notices it runs
// as a continuation step in the releasing cell's goroutine, so it must
// end the chain rather than panic there: the releasing cell finishes its
// program, and only the waiting cell fails.
func TestFailStopInsideChainHaltsOwnCell(t *testing.T) {
	cfg := KSR1(2)
	cfg.Faults = faults.Config{FailStop: map[int]sim.Time{1: 50 * sim.Microsecond}}
	m := New(cfg)
	lock := m.AllocPadded("lock", 1).PaddedSlot(0)
	finished := make([]bool, 2)
	_, err := m.Run(2, func(p *Proc) {
		if p.CellID() == 0 {
			p.AcquireSubPage(lock)
			p.Compute(4000) // 200 us: cell 1's fail-stop comes due meanwhile
			p.ReleaseSubPage(lock)
			p.Compute(100) // cell 1's retry step runs in this park
		} else {
			p.Compute(20) // let cell 0 win the sub-page
			p.AcquireSubPage(lock)
		}
		finished[p.CellID()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !finished[0] || finished[1] {
		t.Errorf("finished = %v, want cell 0 only", finished)
	}
	if got := m.FailedCells(); len(got) != 1 || got[0] != 1 {
		t.Errorf("FailedCells = %v, want [1]", got)
	}
	if r := m.CellAt(1).Monitor().GSPRetries; r == 0 {
		t.Error("cell 1 never failed a get_sub_page, so it never waited inside AcquireSubPage")
	}
}

// Failed get_sub_page attempts and contended acquisitions allocate
// nothing once each processor has made its first.
func TestGetSubPageRetryAllocs(t *testing.T) {
	m := New(KSR1(4))
	lock := m.AllocPadded("lock", 1).PaddedSlot(0)
	var failed, cycle float64
	measuring := true
	_, err := m.Run(4, func(p *Proc) {
		switch p.CellID() {
		case 0:
			// Hold the sub-page while cell 1 retries, then contend with
			// cells 2 and 3.
			p.AcquireSubPage(lock)
			p.Compute(40_000)
			p.ReleaseSubPage(lock)
			cycle = testing.AllocsPerRun(20, func() {
				p.AcquireSubPage(lock)
				p.Compute(10)
				p.ReleaseSubPage(lock)
				p.Compute(10) // let the waiters' retries go first
			})
			measuring = false
		case 1:
			p.Compute(20)
			failed = testing.AllocsPerRun(50, func() {
				if p.GetSubPage(lock) {
					t.Error("get_sub_page succeeded while cell 0 held the sub-page")
				}
			})
		default:
			for measuring {
				p.AcquireSubPage(lock)
				p.Compute(10)
				p.ReleaseSubPage(lock)
				p.Compute(10)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("failed get_sub_page: %v allocs, want 0", failed)
	}
	if cycle != 0 {
		t.Errorf("contended acquire/release: %v allocs, want 0", cycle)
	}
	if m.CellAt(0).Monitor().GSPRetries == 0 {
		t.Error("cell 0's acquisitions were never contended")
	}
}

// BenchmarkGetSubPageContended measures one AcquireSubPage /
// ReleaseSubPage pair by one of 32 processors contending for a hardware
// lock sub-page on a KSR-1: failed get_sub_page transits, waits for the
// release, and the winning attempt.
func BenchmarkGetSubPageContended(b *testing.B) {
	const procs = 32
	m := New(KSR1(procs))
	lock := m.AllocPadded("lock", 1).PaddedSlot(0)
	cycle := func(p *Proc) {
		p.AcquireSubPage(lock)
		p.Compute(10)
		p.ReleaseSubPage(lock)
		p.Compute(10) // let the waiters' retries go first
	}
	// Warm up: every cell's caches and directory entry exist before the
	// timer starts.
	if _, err := m.Run(procs, cycle); err != nil {
		b.Fatal(err)
	}
	handoffs := m.Engine().Handoffs()
	b.ReportAllocs()
	b.ResetTimer()
	_, err := m.Run(procs, func(p *Proc) {
		n := b.N / procs
		if p.CellID() < b.N%procs {
			n++
		}
		for k := 0; k < n; k++ {
			cycle(p)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.Engine().Handoffs()-handoffs)/float64(b.N), "handoffs/op")
}
