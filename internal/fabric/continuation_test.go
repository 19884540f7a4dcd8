package fabric

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/sim"
)

// oneSlotRing is a single leaf ring with one slot per sub-ring, so every
// pair of concurrent transactions on a sub-ring contends.
func oneSlotRing(e *sim.Engine, cells int) *Ring {
	cfg := DefaultRingConfig(cells)
	cfg.SlotsPerSubRing = 1
	return NewRing(e, cfg)
}

// A synchronous ring transaction allocates nothing once its process has
// made its first one, uncontended or queued for a slot.
func TestRingTransactionAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
	}{{"uncontended", 1}, {"contended", 4}} {
		e := sim.NewEngine()
		r := oneSlotRing(e, 8)
		var allocs float64
		e.Spawn("measured", func(p *sim.Process) {
			allocs = testing.AllocsPerRun(100, func() { r.Access(p, 0, 1, 0) })
		})
		for i := 1; i < tc.procs; i++ {
			e.Spawn("load", func(p *sim.Process) {
				for e.Live() == tc.procs {
					r.Access(p, 2, 3, 0)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s ring transaction: %v allocs, want 0", tc.name, allocs)
		}
		if contended := r.Stats().TotalWait > 0; contended != (tc.procs > 1) {
			t.Errorf("%s ring transaction: queued for a slot = %v", tc.name, contended)
		}
	}
}

// An AccessThen chain runs the whole transaction, ARD crossings and slot
// queueing included, without handing control back to the process: on a
// two-level ring with one contending peer the measured process resumes
// once per transaction.
func TestRingAccessThenOneHandoffPerTransaction(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultRingConfig(8)
	cfg.LeafSize, cfg.ARDCross, cfg.SlotsPerSubRing = 4, 500, 1
	r := NewRing(e, cfg)
	const n = 20
	done := 0
	for i := 0; i < 2; i++ {
		src := i
		e.Spawn("p", func(p *sim.Process) {
			for k := 0; k < n; k++ {
				var lat sim.Time
				start := p.Now()
				p.Run(func() {
					r.AccessThen(p, src, 7-src, memory.Addr(0), func() { lat = p.Now() - start })
				})
				if lat < r.UnloadedLatency(src, 7-src, 0) {
					t.Errorf("transaction took %v, below the unloaded %v", lat, r.UnloadedLatency(src, 7-src, 0))
				}
			}
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 || r.Stats().Transactions != 2*n {
		t.Fatalf("done %d, %d transactions", done, r.Stats().Transactions)
	}
	if r.Stats().TotalWait == 0 {
		t.Error("the two processes never contended for a slot")
	}
	// Each transaction parks at least 8 times (3 slot holds, 3
	// overheads, 2 ARD crossings) plus once per queued slot grant, but
	// hands off at most twice: to the peer and back.
	if h := e.Handoffs(); h > 2*2*n+2 {
		t.Errorf("%d handoffs for %d transactions", h, 2*n)
	}
}

// BenchmarkRingTransaction measures one synchronous transaction on a
// KSR-1 ring by one of 32 processes contending for its 24 slots.
func BenchmarkRingTransaction(b *testing.B) {
	const procs = 32
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(procs))
	for i := 0; i < procs; i++ {
		src, n := i, b.N/procs
		if i < b.N%procs {
			n++
		}
		e.Spawn("p", func(p *sim.Process) {
			for k := 0; k < n; k++ {
				r.Access(p, src, (src+1)%procs, memory.Addr(k*memory.SubPageSize))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(e.Handoffs())/float64(b.N), "handoffs/op")
}

// BenchmarkRingAccessAsync measures fire-and-forget ring transactions,
// the poststore path: 64 streams on a 32-cell ring each issue their next
// transaction from the completion of the last, so the 24 slots stay
// contended. One op is one transaction. A warm-up round grows the
// record pool and the slot queues to their peak first.
func BenchmarkRingAccessAsync(b *testing.B) {
	const cells, streams = 32, 64
	e := sim.NewEngine()
	r := NewRing(e, DefaultRingConfig(cells))
	left := 0
	ss := make([]asyncStream, streams)
	for i := range ss {
		ss[i] = asyncStream{r: r, left: &left, src: i % cells}
		ss[i].issueFn = ss[i].issue
	}
	run := func(n int) {
		left = n
		for i := range ss {
			ss[i].issue()
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run(streams)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// asyncStream issues async ring transactions one after another until
// the shared budget is spent.
type asyncStream struct {
	r       *Ring
	left    *int
	src, k  int
	issueFn func()
}

func (s *asyncStream) issue() {
	if *s.left == 0 {
		return
	}
	*s.left--
	s.k++
	s.r.AccessAsync(s.src, (s.src+1)%s.r.Nodes(), memory.Addr(s.k%4)*memory.SubPageSize, s.issueFn)
}
