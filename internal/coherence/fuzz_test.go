package coherence

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/sim"
)

// FuzzDirectoryInvariants drives the directory with arbitrary
// Get/Release/Poststore/Prefetch/Drop/read/write sequences from several
// cells concurrently, with fault injection enabled (NACKs, slot loss,
// link degradation), and asserts that the protocol invariants hold after
// every mutation and that the run neither deadlocks nor livelocks.
//
// The op stream is interpreted byte-by-byte, round-robin across cells,
// so any corpus input is a valid schedule. Atomic acquisitions are
// released in the same step, which keeps every blocking path
// (a write fill stalled on an atomic hold, read joins, write
// serialization) finite.
func FuzzDirectoryInvariants(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55})
	f.Add(uint64(2), []byte("get-release-poststore-prefetch-drop"))
	f.Add(uint64(3), []byte{0x02, 0x0a, 0x12, 0x1a, 0x22, 0x2a, 0x32, 0x3a, 0x01, 0x09})
	f.Add(uint64(99), []byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77})

	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		const cells = 4
		e := sim.NewEngine()
		e.SetWatchdog(1 << 20)
		e.SetDeadline(30 * sim.Second)
		defer e.Shutdown() // deadline-bounded: release parked cells
		ring := fabric.NewRing(e, fabric.DefaultRingConfig(cells))
		inj := faults.New(faults.Config{
			NACKRate:        0.25,
			SlotLossRate:    0.1,
			LinkDegradeRate: 0.1,
		}, seed)
		ring.SetFaults(inj)
		d := NewDirectory(e, ring)
		d.Faults = inj
		d.Checked = true

		for c := 0; c < cells; c++ {
			c := c
			e.Spawn("cell", func(p *sim.Process) {
				for k := c; k < len(ops); k += cells {
					b := ops[k]
					sp := memory.SubPageID(b >> 3 % 8)
					switch b % 6 {
					case 0:
						ensureReadable(d, p, c, sp)
					case 1:
						ensureWritable(d, p, c, sp)
					case 2:
						if ok, _ := getSubPage(d, p, c, sp); ok {
							d.ReleaseSubPage(p, c, sp)
						}
					case 3:
						d.Poststore(c, sp, nil)
					case 4:
						d.Prefetch(c, sp, nil)
					case 5:
						d.Drop(c, sp)
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d ops %x: %v", seed, ops, err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("seed %d ops %x: %v", seed, ops, err)
		}
		if run := d.Stats().MaxRetryRun; run > inj.MaxRetries() {
			t.Fatalf("retry run %d exceeds bound %d", run, inj.MaxRetries())
		}
	})
}
