package fabric

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sim"
)

// asyncCase is one fabric driven by a seeded storm of fire-and-forget
// transactions for the async golden.
type asyncCase struct {
	label string
	cells int
	make  func(e *sim.Engine) Fabric
}

// asyncCases covers every fabric's AccessAsync: a two-level ring with
// one slot per sub-ring (contended slot grants, ARD crossings) under
// slot loss and link degradation, with ring tracing armed; a bus; and a
// butterfly, whose AccessAsync no coherent machine reaches.
func asyncCases() []asyncCase {
	return []asyncCase{
		{label: "ring", cells: 8, make: func(e *sim.Engine) Fabric {
			cfg := DefaultRingConfig(8)
			cfg.LeafSize = 4
			cfg.SlotsPerSubRing = 1
			cfg.TopSlotFactor = 1
			cfg.ARDCross = 1000
			r := NewRing(e, cfg)
			r.SetFaults(faults.New(faults.Config{SlotLossRate: 0.2, LinkDegradeRate: 0.2}, 7))
			return r
		}},
		{label: "bus", cells: 6, make: func(e *sim.Engine) Fabric {
			return NewBus(e, DefaultBusConfig(6))
		}},
		{label: "butterfly", cells: 6, make: func(e *sim.Engine) Fabric {
			return NewButterfly(e, DefaultButterflyConfig(6))
		}},
	}
}

// runAsyncCase issues 48 async transactions at seeded times between
// seeded cells on a few sub-pages, while two processes run synchronous
// transactions on the same fabric. Every fifth async transaction has no
// completion callback, and every seventh completion issues a follow-up
// transaction from inside its callback. It returns the completion log,
// the fabric's counters, the event count and a hash of every hook call.
func runAsyncCase(t *testing.T, c asyncCase) string {
	t.Helper()
	e := sim.NewEngine()
	f := c.make(e)
	sess := obs.NewSession(obs.Options{Cats: obs.CatRing})
	rec := sess.Recorder(c.label)
	rec.Attach(e.Now, c.label, c.cells, 1, nil)
	f.SetObs(rec)

	hooks := fnv.New64a()
	nhooks := 0
	hook := func(format string, args ...any) {
		nhooks++
		fmt.Fprintf(hooks, format, args...)
	}
	e.SetHooks(&sim.Hooks{
		EventFired:    func(at sim.Time) { hook("fired %d\n", at) },
		ProcessResume: func(at sim.Time, p *sim.Process) { hook("resume %d %d\n", at, p.ID()) },
		ProcessPark:   func(at sim.Time, p *sim.Process, why string) { hook("park %d %d %s\n", at, p.ID(), why) },
		ProcessDone:   func(at sim.Time, p *sim.Process) { hook("done %d %d\n", at, p.ID()) },
	})

	var log bytes.Buffer
	rng := sim.NewRNG(11)
	addr := func() memory.Addr { return memory.Addr(rng.Intn(5)) * memory.SubPageSize }
	var issue func(k int, src, dst int, a memory.Addr)
	issue = func(k int, src, dst int, a memory.Addr) {
		var done func()
		if k%5 != 4 {
			done = func() {
				fmt.Fprintf(&log, "%s async %d done at %d\n", c.label, k, e.Now())
				if k%7 == 0 {
					issue(100+k, dst, src, a)
				}
			}
		}
		f.AccessAsync(src, dst, a, done)
	}
	for k := 0; k < 48; k++ {
		k, at := k, sim.Time(rng.Intn(40000))
		src, dst, a := rng.Intn(c.cells), rng.Intn(c.cells), addr()
		e.Schedule(at, func() { issue(k, src, dst, a) })
	}
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn(fmt.Sprintf("sync%d", i), func(p *sim.Process) {
			for j := 0; j < 6; j++ {
				lat := f.Access(p, i, (i+3)%c.cells, memory.Addr(j%3)*memory.SubPageSize)
				fmt.Fprintf(&log, "%s sync %d.%d latency %d at %d\n", c.label, i, j, lat, e.Now())
				p.Sleep(sim.Time(1500 * (i + 1)))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	if f.InFlight() != 0 {
		t.Fatalf("%s: %d transactions still in flight", c.label, f.InFlight())
	}
	s := f.Stats()
	fmt.Fprintf(&log, "%s stats transactions %d latency %d wait %d max_inflight %d\n",
		c.label, s.Transactions, s.TotalLatency, s.TotalWait, s.MaxInFlight)
	fmt.Fprintf(&log, "%s sim.now_ns %d sim.events %d\n", c.label, e.Now().Ns(), e.EventsExecuted())
	fmt.Fprintf(&log, "%s hooks %d fnv64a %016x\n", c.label, nhooks, hooks.Sum64())
	fmt.Fprintf(&log, "%s trace sha256 %x\n", c.label, sha256.Sum256(sess.TraceJSON()))
	return log.String()
}

// TestGoldenAsyncTransactions pins every event, hook call and completion
// time of the fabrics' fire-and-forget transactions, slot losses and
// degraded holds included, so a change to how AccessAsync is run must
// leave them byte-identical. Regenerate after an intentional model
// change with:
//
//	KSRSIM_UPDATE_GOLDEN=1 go test ./internal/fabric -run GoldenAsyncTransactions
func TestGoldenAsyncTransactions(t *testing.T) {
	var got bytes.Buffer
	for _, c := range asyncCases() {
		got.WriteString(runAsyncCase(t, c))
	}
	path := filepath.Join("testdata", "golden_async.txt")
	if os.Getenv("KSRSIM_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with KSRSIM_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("async transactions diverged from %s; if intentional, regenerate with KSRSIM_UPDATE_GOLDEN=1\ngot:\n%s", path, got.Bytes())
	}
}
