package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sim"
)

// faultCase is one small contended, fault-injected run for the fault-path
// golden: a machine config, how many processors run, and the one cell
// that fail-stops — on coherent machines while its processor is inside a
// lock acquisition, for a range case inside a ReadRange/WriteRange
// sweep, and for a spin case inside a flag spin.
type faultCase struct {
	label    string
	cfg      machine.Config
	procs    int
	failCell int
	ranges   bool
	spins    bool
}

// faultCases covers the transaction paths the golden trace of
// TestGoldenChromeTrace never reaches: a two-level ring with one slot per
// sub-ring (contended slot grants, ARD crossings) under slot loss, link
// degradation and coherence NACKs; a Symmetry bus under NACKs; and a
// Butterfly whose memory modules serialize contended fetch-and-adds. On
// both coherent machines one cell fail-stops in the middle of a
// contended get_sub_page retry loop.
func faultCases() []faultCase {
	ring := machine.KSR1(8)
	ring.Ring.LeafSize = 4
	ring.Ring.ARDCross = 1000
	ring.Ring.SlotsPerSubRing = 1
	ring.Ring.TopSlotFactor = 1
	ring.Faults = faults.Config{
		SlotLossRate:    0.1,
		LinkDegradeRate: 0.1,
		NACKRate:        0.1,
		FailStop:        map[int]sim.Time{5: 600 * sim.Microsecond},
	}
	bus := machine.Symmetry(6)
	bus.Faults = faults.Config{
		NACKRate: 0.15,
		FailStop: map[int]sim.Time{4: 150 * sim.Microsecond},
	}
	bfly := machine.Butterfly(6)
	bfly.Faults = faults.Config{
		FailStop: map[int]sim.Time{2: 10 * sim.Microsecond},
	}
	// The range cases run on the same faulted two-level ring with cell
	// stalls and timer interrupts inflating every cycle charge, and move
	// the fail-stop into the middle of a sweep.
	sweep := ring
	sweep.TimerInterrupts = true
	sweep.InterruptEvery = 30 * sim.Microsecond
	sweep.InterruptCost = 2 * sim.Microsecond
	sweep.Faults.CellStallMean = 40 * sim.Microsecond
	sweep.Faults.CellStallTime = 3 * sim.Microsecond
	sweep.Faults.FailStop = map[int]sim.Time{4: 60 * sim.Microsecond}
	noSnarf := sweep
	noSnarf.DisableSnarfing = true
	// The spin cases run ksync barriers and locks on the same faulted
	// ring, and a counter barrier on a butterfly with cell stalls and
	// timer interrupts, whose spinners poll across the network. The last
	// cell spins on a flag no other cell waits behind and fail-stops
	// inside that spin.
	ringSpin := sweep
	ringSpin.Faults.FailStop = map[int]sim.Time{5: 1900 * sim.Microsecond}
	bflySpin := machine.Butterfly(6)
	bflySpin.TimerInterrupts = true
	bflySpin.InterruptEvery = 30 * sim.Microsecond
	bflySpin.InterruptCost = 2 * sim.Microsecond
	bflySpin.Faults = faults.Config{
		CellStallMean: 40 * sim.Microsecond,
		CellStallTime: 3 * sim.Microsecond,
		FailStop:      map[int]sim.Time{5: 66 * sim.Microsecond},
	}
	return []faultCase{
		{label: "faults/ring", cfg: ring, procs: 6, failCell: 5},
		{label: "faults/bus", cfg: bus, procs: 6, failCell: 4},
		{label: "faults/butterfly", cfg: bfly, procs: 6, failCell: 2},
		{label: "faults/ring-range", cfg: sweep, procs: 6, failCell: 4, ranges: true},
		{label: "faults/ring-range-nosnarf", cfg: noSnarf, procs: 6, failCell: 4, ranges: true},
		{label: "faults/ring-spin", cfg: ringSpin, procs: 6, failCell: 5, spins: true},
		{label: "faults/butterfly-spin", cfg: bflySpin, procs: 6, failCell: 5, spins: true},
	}
}

// runFaultCase runs one case fully observed into rec and returns the
// machine's final counters, engine event count and simulated end time as
// text. Coherent machines contend on a hardware lock guarding a shared
// counter; the butterfly hammers one fetch-and-add word.
func runFaultCase(t *testing.T, fc faultCase, rec *obs.Recorder) string {
	t.Helper()
	cfg := fc.cfg
	cfg.Obs = rec
	m := machine.New(cfg)
	if fc.ranges {
		runRangeProgram(t, fc, m)
		return faultCounters(fc, m)
	}
	if fc.spins {
		runSpinProgram(t, fc, m)
		return faultCounters(fc, m)
	}
	ctr := m.AllocWords("ctr", 1).At(0)
	data := m.Alloc("data", 4*memory.SubPageSize)
	lock := ksync.NewHWLock(m)
	inAcquire := make([]bool, fc.procs)
	failedInAcquire := -1
	_, err := m.Run(fc.procs, func(p *machine.Proc) {
		id := p.CellID()
		defer func() {
			// Runs while a fail-stop unwinds the cell, before Run's recover.
			if inAcquire[id] {
				failedInAcquire = id
			}
		}()
		for i := 0; i < 2; i++ {
			if cfg.Coherent {
				inAcquire[id] = true
				lock.Acquire(p)
				inAcquire[id] = false
				v := p.ReadWord(ctr)
				p.Compute(200)
				p.WriteWord(ctr, v+1)
				lock.Release(p)
			} else {
				p.FetchAdd(ctr, 1)
			}
			p.ReadRange(data.At(int64(id%4)*memory.SubPageSize), 2, memory.WordSize)
			p.Compute(100)
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", fc.label, err)
	}
	if failed := m.FailedCells(); len(failed) != 1 || failed[0] != fc.failCell {
		t.Fatalf("%s: failed cells %v, want [%d]", fc.label, failed, fc.failCell)
	}
	if cfg.Coherent && failedInAcquire != fc.failCell {
		t.Fatalf("%s: cell %d's fail-stop did not land inside its lock acquisition", fc.label, fc.failCell)
	}
	return faultCounters(fc, m)
}

// runRangeProgram runs the range cases' sweeps over eight shared
// sub-pages. Cells 3-5 sweep all of them with reads (a herd whose fills
// meet snarf joins), then write a few (write-serialization waits).
// Cell 2 writes the first four, then publishes its iteration in a flag
// sub-page with WriteWord and pushes it out with Poststore; cell 1 waits
// for it in SpinUntilAllAtLeast before its own sweep. Cell 0 prefetches a
// sub-page and reads it straight away, joining the in-flight prefetch.
// The failing cell's fail-stop comes due between two fills of a sweep.
func runRangeProgram(t *testing.T, fc faultCase, m *machine.Machine) {
	t.Helper()
	shared := m.Alloc("shared", 8*memory.SubPageSize)
	flag := m.AllocPadded("flag", 1).PaddedSlot(0)
	const stride = memory.SubPageSize / 2
	inRange := make([]bool, fc.procs)
	failedInRange := -1
	_, err := m.Run(fc.procs, func(p *machine.Proc) {
		id := p.CellID()
		defer func() {
			// Runs while a fail-stop unwinds the cell, before Run's recover.
			if inRange[id] {
				failedInRange = id
			}
		}()
		sweep := func(write bool, firstSubPage, count int64) {
			inRange[id] = true
			if write {
				p.WriteRange(shared.At(firstSubPage*memory.SubPageSize), count, stride)
			} else {
				p.ReadRange(shared.At(firstSubPage*memory.SubPageSize), count, stride)
			}
			inRange[id] = false
		}
		for i := uint64(1); i <= 2; i++ {
			switch id {
			case 0:
				p.Prefetch(shared.At(6 * memory.SubPageSize))
				sweep(false, 6, 4)
			case 1:
				p.SpinUntilAllAtLeast(flag, 4, i)
				sweep(false, 0, 16)
			case 2:
				sweep(true, 0, 8)
				for w := int64(0); w < 4; w++ {
					p.WriteWord(flag+memory.Addr(w*memory.WordSize), i)
				}
				p.Poststore(flag)
			default:
				sweep(false, 0, 16)
				sweep(true, int64(id%2), 4)
			}
			p.Compute(50)
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", fc.label, err)
	}
	if failed := m.FailedCells(); len(failed) != 1 || failed[0] != fc.failCell {
		t.Fatalf("%s: failed cells %v, want [%d]", fc.label, failed, fc.failCell)
	}
	if failedInRange != fc.failCell {
		t.Fatalf("%s: cell %d's fail-stop did not land inside a sweep", fc.label, fc.failCell)
	}
}

// runSpinProgram runs the spin cases. Every cell but the last
// synchronizes: on coherent machines two episodes each of the counter,
// MCS (its parents spin on four packed child words at once) and
// tournament(M) barriers, then two acquisitions each of the Anderson and
// MCS queue locks, each around its own counter (the MCS lock's releases
// meet a successor that has not linked itself yet), and of the
// read-write ticket lock; on the butterfly, four counter-barrier
// episodes whose spinners poll the counter's home module. Cell 0 raises
// a flag after each barrier kind or episode. The last cell spins on that
// flag for the final raise, which comes after its fail-stop: on the ring
// it rereads the flag after every earlier raise and halts between the
// last wake and its reread, and on the butterfly it halts in the gap
// after a poll.
func runSpinProgram(t *testing.T, fc faultCase, m *machine.Machine) {
	t.Helper()
	coherent := m.Directory() != nil
	workers := fc.procs - 1
	var barriers []ksync.Barrier
	episodes := 2
	names := []string{"counter", "mcs", "tournament(M)"}
	if !coherent {
		names, episodes = names[:1], 4
	}
	for _, name := range names {
		f, _ := ksync.ByName(name)
		barriers = append(barriers, f.New(m, workers))
	}
	anderson, mcs, rw := ksync.NewAndersonLock(m), ksync.NewMCSLock(m), ksync.NewRWLock(m)
	ctrs := m.AllocPadded("ctr", 2) // one counter per queue lock
	flag := m.AllocPadded("flag", 1).PaddedSlot(0)
	// Cell 0 raises the flag after each barrier kind on the ring and
	// after each episode on the butterfly.
	raises, lastRaise := uint64(0), uint64(len(barriers))
	if !coherent {
		lastRaise = uint64(episodes)
	}
	inSpin, failedInSpin := false, false
	_, err := m.Run(fc.procs, func(p *machine.Proc) {
		id := p.CellID()
		if id == workers {
			defer func() {
				// Runs while the fail-stop unwinds the cell.
				failedInSpin = inSpin
			}()
			inSpin = true
			p.SpinUntilAtLeast(flag, lastRaise)
			inSpin = false
			return
		}
		for _, b := range barriers {
			for ep := 0; ep < episodes; ep++ {
				p.Compute(int64(30 * (id + 1)))
				b.Wait(p)
				if id == 0 && (!coherent || ep == episodes-1) {
					raises++
					p.WriteWord(flag, raises)
				}
			}
		}
		if !coherent {
			return
		}
		for i, l := range []ksync.Lock{anderson, mcs} {
			ctr := ctrs.PaddedSlot(int64(i))
			for k := 0; k < 2; k++ {
				l.Acquire(p)
				v := p.ReadWord(ctr)
				p.Compute(100)
				p.WriteWord(ctr, v+1)
				l.Release(p)
				p.Compute(int64(20 * id))
			}
		}
		for k := 0; k < 2; k++ {
			tok := rw.Acquire(p, (id+k)%2 == 0)
			p.Compute(100)
			rw.Release(p, tok)
			p.Compute(int64(20 * id))
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", fc.label, err)
	}
	if failed := m.FailedCells(); len(failed) != 1 || failed[0] != fc.failCell {
		t.Fatalf("%s: failed cells %v, want [%d]", fc.label, failed, fc.failCell)
	}
	if !failedInSpin {
		t.Fatalf("%s: cell %d's fail-stop did not land inside its spin", fc.label, fc.failCell)
	}
	for i := int64(0); coherent && i < 2; i++ {
		if got, want := m.Space().ReadWord(ctrs.PaddedSlot(i)), uint64(2*workers); got != want {
			t.Fatalf("%s: lock %d's counter is %d, want %d", fc.label, i, got, want)
		}
	}
}

// faultCounters renders a finished case's final counters, engine event
// count and simulated end time as text.
func faultCounters(fc faultCase, m *machine.Machine) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s sim.now_ns %d\n", fc.label, m.Now().Ns())
	fmt.Fprintf(&b, "%s sim.events %d\n", fc.label, m.Engine().EventsExecuted())
	fmt.Fprintf(&b, "%s failed_cells %v\n", fc.label, m.FailedCells())
	for _, c := range m.Counters() {
		fmt.Fprintf(&b, "%s %s %g\n", fc.label, c.Name, c.Value)
	}
	return b.String()
}

// TestGoldenFaultTrace pins the CatAll Chrome trace and the final counters
// of the fault-path runs. The engine's continuation steps must reproduce
// every event, RNG draw and hook call of the blocking transaction paths,
// including slot-loss re-acquires, NACK backoff and a fail-stop that
// comes due between get_sub_page attempts, so both files are
// byte-identical across engine changes. Regenerate after an intentional
// model or instrumentation change with:
//
//	KSRSIM_UPDATE_GOLDEN=1 go test ./internal/experiments -run GoldenFaultTrace
func TestGoldenFaultTrace(t *testing.T) {
	sess := obs.NewSession(obs.Options{Cats: obs.CatAll, SampleEvery: 100_000})
	var counters bytes.Buffer
	for _, fc := range faultCases() {
		counters.WriteString(runFaultCase(t, fc, sess.Recorder(fc.label)))
	}
	trace := sess.TraceJSON()
	if err := obs.ValidateTrace(trace); err != nil {
		t.Fatalf("fault trace fails schema validation: %v", err)
	}
	files := []struct {
		name string
		data []byte
	}{
		{"golden_fault_trace.json", trace},
		{"golden_fault_counters.txt", counters.Bytes()},
	}
	for _, f := range files {
		path := filepath.Join("testdata", f.name)
		if os.Getenv("KSRSIM_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, f.data, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s (%d bytes)", path, len(f.data))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with KSRSIM_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(f.data, want) {
			t.Errorf("%s diverged from golden file (%d bytes vs %d); if intentional, regenerate with KSRSIM_UPDATE_GOLDEN=1",
				f.name, len(f.data), len(want))
		}
	}
}
