package coherence

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/sim"
)

// TestGoldenAsyncProtocol pins every event, hook call and completion of
// poststores and prefetches under NACK retries, on a bus and on a ring:
// three processes write, poststore, prefetch and read a few sub-pages
// while a spinner waits on one of them. Regenerate after an intentional
// model change with:
//
//	KSRSIM_UPDATE_GOLDEN=1 go test ./internal/coherence -run GoldenAsyncProtocol
func TestGoldenAsyncProtocol(t *testing.T) {
	fabrics := []struct {
		label string
		make  func(e *sim.Engine) fabric.Fabric
	}{
		{"bus", func(e *sim.Engine) fabric.Fabric { return fabric.NewBus(e, fabric.DefaultBusConfig(6)) }},
		{"ring", func(e *sim.Engine) fabric.Fabric { return fabric.NewRing(e, fabric.DefaultRingConfig(6)) }},
	}
	var got bytes.Buffer
	for _, f := range fabrics {
		e := sim.NewEngine()
		d := NewDirectory(e, f.make(e))
		d.Faults = faults.New(faults.Config{NACKRate: 0.25}, 5)
		d.Checked = true
		hooks := fnv.New64a()
		e.SetHooks(&sim.Hooks{
			EventFired:    func(at sim.Time) { fmt.Fprintf(hooks, "fired %d\n", at) },
			ProcessResume: func(at sim.Time, p *sim.Process) { fmt.Fprintf(hooks, "resume %d %d\n", at, p.ID()) },
			ProcessPark:   func(at sim.Time, p *sim.Process, why string) { fmt.Fprintf(hooks, "park %d %d %s\n", at, p.ID(), why) },
		})
		logf := func(format string, args ...any) {
			fmt.Fprintf(&got, "%s %d: ", f.label, e.Now())
			fmt.Fprintf(&got, format, args...)
			got.WriteByte('\n')
		}
		for c := 0; c < 3; c++ {
			c := c
			e.Spawn(fmt.Sprintf("w%d", c), func(p *sim.Process) {
				for k := 0; k < 6; k++ {
					sp := memory.SubPageID((c + k) % 4)
					ensureWritable(d, p, c, sp)
					d.Poststore(c, sp, func() { logf("poststore c%d k%d sp%d", c, k, sp) })
					pf := memory.SubPageID(4 + (c+2*k)%3)
					d.Prefetch(c, pf, func() { logf("prefetch c%d k%d sp%d", c, k, pf) })
					if k%2 == 1 {
						d.Prefetch(c, pf, nil) // joins or finds the copy
					}
					p.Sleep(sim.Time(700 * (c + 1)))
					lat, remote := ensureReadable(d, p, c, pf)
					logf("read c%d k%d sp%d lat %d remote %v", c, k, pf, lat, remote)
				}
			})
		}
		e.Spawn("spinner", func(p *sim.Process) {
			ensureReadable(d, p, 5, 0)
			for i := 0; i < 3; i++ {
				waitChange(d, p, 0, d.Version(0))
				logf("spinner woke %d", i)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", f.label, err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", f.label, err)
		}
		fmt.Fprintf(&got, "%s stats %+v\n", f.label, d.Stats())
		fmt.Fprintf(&got, "%s sim.events %d hooks fnv64a %016x\n", f.label, e.EventsExecuted(), hooks.Sum64())
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
		t.Errorf("async protocol diverged from %s; if intentional, regenerate with KSRSIM_UPDATE_GOLDEN=1\ngot:\n%s", path, got.Bytes())
	}
}
