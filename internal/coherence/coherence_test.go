package coherence

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/sim"
)

const remoteLat = sim.Time(8750)

func newDir() (*sim.Engine, *Directory) {
	e := sim.NewEngine()
	d := NewDirectory(e, fabric.NewRing(e, fabric.DefaultRingConfig(32)))
	return e, d
}

// ensureReadable is EnsureReadableThen run to completion on p.
func ensureReadable(d *Directory, p *sim.Process, cell int, sp memory.SubPageID) (lat sim.Time, remote bool) {
	p.Run(func() { d.EnsureReadableThen(p, cell, sp, func(l sim.Time, r bool) { lat, remote = l, r }) })
	return lat, remote
}

// ensureWritable is EnsureWritableThen run to completion on p.
func ensureWritable(d *Directory, p *sim.Process, cell int, sp memory.SubPageID) (lat sim.Time, remote bool) {
	p.Run(func() { d.EnsureWritableThen(p, cell, sp, func(l sim.Time, r bool) { lat, remote = l, r }) })
	return lat, remote
}

// waitChange is WaitChangeThen run to completion on p.
func waitChange(d *Directory, p *sim.Process, sp memory.SubPageID, since uint64) {
	p.Run(func() { d.WaitChangeThen(p, sp, since, nil) })
}

// getSubPage is GetSubPageThen run to completion on p: one get_sub_page
// attempt, reporting success and its latency.
func getSubPage(d *Directory, p *sim.Process, cell int, sp memory.SubPageID) (ok bool, lat sim.Time) {
	p.Run(func() { d.GetSubPageThen(p, cell, sp, func(o bool, l sim.Time) { ok, lat = o, l }) })
	return ok, lat
}

// inProc runs body inside a single simulated process and finishes the run.
func inProc(t *testing.T, e *sim.Engine, body func(p *sim.Process)) {
	t.Helper()
	e.Spawn("t", body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestColdReadFetchesRemotely(t *testing.T) {
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		lat, remote := ensureReadable(d, p, 0, 0)
		if !remote || lat != remoteLat {
			t.Errorf("cold read: lat=%v remote=%v, want %v true", lat, remote, remoteLat)
		}
		lat, remote = ensureReadable(d, p, 0, 0)
		if remote || lat != 0 {
			t.Errorf("warm read: lat=%v remote=%v, want 0 false", lat, remote)
		}
		// A sole-copy read installs exclusively (E-state): private data is
		// locally writable.
		if d.StateOf(0) != Exclusive {
			t.Errorf("state after sole read = %v, want exclusive", d.StateOf(0))
		}
		ensureReadable(d, p, 1, 0)
	})
	if d.StateOf(0) != Shared {
		t.Errorf("state after second reader = %v, want shared", d.StateOf(0))
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	e, d := newDir()
	invalidated := map[int]bool{}
	d.OnInvalidate = func(cell int, sp memory.SubPageID) { invalidated[cell] = true }
	inProc(t, e, func(p *sim.Process) {
		ensureReadable(d, p, 0, 0)
		ensureReadable(d, p, 1, 0)
		ensureReadable(d, p, 2, 0)
		if d.HolderCount(0) != 3 {
			t.Fatalf("holders = %d, want 3", d.HolderCount(0))
		}
		_, remote := ensureWritable(d, p, 0, 0)
		if !remote {
			t.Error("upgrade from shared should be a remote transaction")
		}
	})
	if d.StateOf(0) != Exclusive {
		t.Errorf("state = %v, want exclusive", d.StateOf(0))
	}
	if d.HolderCount(0) != 1 || !d.HasValid(0, 0) {
		t.Error("writer is not the sole holder")
	}
	if !invalidated[1] || !invalidated[2] || invalidated[0] {
		t.Errorf("invalidation callbacks: %v", invalidated)
	}
	if d.Stats().Invalidations != 2 {
		t.Errorf("Invalidations = %d, want 2", d.Stats().Invalidations)
	}
}

func TestRepeatedWriteByOwnerIsFree(t *testing.T) {
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		ensureWritable(d, p, 0, 0)
		lat, remote := ensureWritable(d, p, 0, 0)
		if remote || lat != 0 {
			t.Errorf("owner re-write: lat=%v remote=%v, want free", lat, remote)
		}
	})
}

func TestReadSnarfingRevalidatesPlaceholders(t *testing.T) {
	// Cells 1..4 share; cell 0 writes (invalidating them to place-holders);
	// then cell 1 re-reads. The response must snarf-fill cells 2..4 too.
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		for c := 1; c <= 4; c++ {
			ensureReadable(d, p, c, 0)
		}
		ensureWritable(d, p, 0, 0)
		if d.HolderCount(0) != 1 {
			t.Fatalf("after write holders = %d", d.HolderCount(0))
		}
		ensureReadable(d, p, 1, 0)
	})
	if d.HolderCount(0) != 5 {
		t.Errorf("after snarfing read holders = %d, want 5 (writer + 4 readers)", d.HolderCount(0))
	}
	if d.Stats().Snarfs != 3 {
		t.Errorf("Snarfs = %d, want 3 (cells 2,3,4)", d.Stats().Snarfs)
	}
}

func TestGetSubPageAtomicSemantics(t *testing.T) {
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		ok, lat := getSubPage(d, p, 0, 0)
		if !ok || lat != remoteLat {
			t.Errorf("first gsp: ok=%v lat=%v", ok, lat)
		}
		if d.StateOf(0) != Atomic {
			t.Errorf("state = %v, want atomic", d.StateOf(0))
		}
		// Second cell fails, but still pays the ring transit.
		ok, lat = getSubPage(d, p, 1, 0)
		if ok || lat != remoteLat {
			t.Errorf("contending gsp: ok=%v lat=%v, want failure at full latency", ok, lat)
		}
		// Re-acquire by owner succeeds.
		ok, _ = getSubPage(d, p, 0, 0)
		if !ok {
			t.Error("owner re-acquire failed")
		}
		d.ReleaseSubPage(p, 0, 0)
		if d.StateOf(0) == Atomic {
			t.Error("still atomic after release")
		}
		ok, _ = getSubPage(d, p, 1, 0)
		if !ok {
			t.Error("gsp after release failed")
		}
	})
	s := d.Stats()
	if s.GSPAttempts != 4 || s.GSPFailures != 1 || s.Releases != 1 {
		t.Errorf("gsp stats = %+v", s)
	}
}

func TestReleaseWithoutHoldPanics(t *testing.T) {
	e, d := newDir()
	e.Spawn("t", func(p *sim.Process) {
		defer func() {
			if recover() == nil {
				t.Error("release without atomic hold did not panic")
			}
		}()
		d.ReleaseSubPage(p, 0, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterBlocksWhileAtomic(t *testing.T) {
	// Cell 0 holds the sub-page atomically for a while; cell 1's write
	// must wait for the release.
	e, d := newDir()
	var writeDone sim.Time
	e.Spawn("locker", func(p *sim.Process) {
		getSubPage(d, p, 0, 0)
		p.Sleep(100000)
		d.ReleaseSubPage(p, 0, 0)
	})
	e.Spawn("writer", func(p *sim.Process) {
		p.Sleep(1000) // let the locker win
		ensureWritable(d, p, 1, 0)
		writeDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if writeDone < 100000 {
		t.Errorf("write completed at %v, before release of atomic state", writeDone)
	}
}

func TestVersionBumpsAndWaitChange(t *testing.T) {
	e, d := newDir()
	var sawVersion uint64
	var wokenAt sim.Time
	e.Spawn("spinner", func(p *sim.Process) {
		ensureReadable(d, p, 0, 0)
		v := d.Version(0)
		waitChange(d, p, 0, v)
		wokenAt = p.Now()
		sawVersion = d.Version(0)
	})
	e.Spawn("writer", func(p *sim.Process) {
		p.Sleep(50000)
		ensureWritable(d, p, 1, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt < 50000 {
		t.Errorf("spinner woke at %v, before the write", wokenAt)
	}
	if sawVersion == 0 {
		t.Error("version did not advance on invalidation")
	}
}

func TestWaitChangeNoLostWakeup(t *testing.T) {
	// If the change already happened, waitChange returns immediately.
	e, d := newDir()
	completed := false
	inProc(t, e, func(p *sim.Process) {
		ensureReadable(d, p, 0, 0)
		v := d.Version(0)
		ensureWritable(d, p, 1, 0) // bumps version
		waitChange(d, p, 0, v)     // must not block
		completed = true
	})
	if !completed {
		t.Error("waitChange blocked despite version already advanced")
	}
}

func TestPoststoreFillsPlaceholdersAndShares(t *testing.T) {
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		// Readers 1, 2 share; writer 0 invalidates them; 0 poststores.
		ensureReadable(d, p, 1, 0)
		ensureReadable(d, p, 2, 0)
		ensureWritable(d, p, 0, 0)
		psDone := false
		d.Poststore(0, 0, func() { psDone = true })
		if psDone {
			t.Error("poststore completed synchronously")
		}
		p.Sleep(10 * remoteLat)
		if !psDone {
			t.Error("poststore never completed")
		}
	})
	if d.HolderCount(0) != 3 {
		t.Errorf("holders after poststore = %d, want 3", d.HolderCount(0))
	}
	if d.StateOf(0) != Shared {
		t.Errorf("state after poststore = %v, want shared (issuer pays upgrade on next write)", d.StateOf(0))
	}
	if d.Stats().PoststoreFill != 2 {
		t.Errorf("PoststoreFill = %d, want 2", d.Stats().PoststoreFill)
	}
}

func TestPoststoreWakesSpinners(t *testing.T) {
	e, d := newDir()
	var wokenAt sim.Time
	e.Spawn("spinner", func(p *sim.Process) {
		ensureReadable(d, p, 1, 0)
		v := d.Version(0)
		waitChange(d, p, 0, v)
		wokenAt = p.Now()
	})
	e.Spawn("writer", func(p *sim.Process) {
		p.Sleep(1000)
		ensureWritable(d, p, 0, 0) // invalidation also wakes; re-arm below
		p.Sleep(1000)
		d.Poststore(0, 0, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt == 0 {
		t.Error("spinner never woke")
	}
}

func TestPrefetchAvoidsSecondFetch(t *testing.T) {
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		d.Prefetch(0, 0, nil)
		p.Sleep(10 * remoteLat) // let it complete
		lat, remote := ensureReadable(d, p, 0, 0)
		if remote || lat != 0 {
			t.Errorf("read after completed prefetch: lat=%v remote=%v, want free", lat, remote)
		}
	})
	if d.Stats().Prefetches != 1 || d.Stats().ReadFetches != 0 {
		t.Errorf("stats = %+v", d.Stats())
	}
}

func TestReadJoinsInFlightPrefetch(t *testing.T) {
	e, d := newDir()
	var lat sim.Time
	var remote bool
	inProc(t, e, func(p *sim.Process) {
		d.Prefetch(0, 0, nil)
		// Access immediately: must wait for the prefetch, not refetch.
		lat, remote = ensureReadable(d, p, 0, 0)
	})
	if !remote {
		t.Error("joining an in-flight prefetch should report remote timing")
	}
	if lat <= 0 || lat > remoteLat {
		t.Errorf("join latency = %v, want within (0, %v]", lat, remoteLat)
	}
	if d.Stats().ReadFetches != 0 {
		t.Error("joining issued a duplicate fetch")
	}
}

func TestDropDissolvesOwnershipButKeepsData(t *testing.T) {
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		ensureWritable(d, p, 0, 0)
		d.Drop(0, 0)
		if d.StateOf(0) != Invalid {
			t.Errorf("state after dropping sole copy = %v, want invalid", d.StateOf(0))
		}
		// Refetch works (served by the migrated copy's stand-in).
		lat, remote := ensureReadable(d, p, 1, 0)
		if !remote || lat != remoteLat {
			t.Errorf("refetch after drop: lat=%v remote=%v", lat, remote)
		}
	})
}

func TestDropNeverEvictsAtomicOwner(t *testing.T) {
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		getSubPage(d, p, 0, 0)
		d.Drop(0, 0) // must be ignored
		if d.StateOf(0) != Atomic || !d.HasValid(0, 0) {
			t.Error("capacity eviction removed an atomic-held sub-page")
		}
		d.ReleaseSubPage(p, 0, 0)
	})
}

func TestFalseSharingPingPong(t *testing.T) {
	// Two cells writing adjacent words of the SAME sub-page must exchange
	// ownership every time: 2N write fetches for 2N alternating writes.
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		for i := 0; i < 5; i++ {
			ensureWritable(d, p, 0, 0)
			ensureWritable(d, p, 1, 0)
		}
	})
	if got := d.Stats().WriteFetches; got != 10 {
		t.Errorf("WriteFetches = %d, want 10 (ownership ping-pong)", got)
	}
}

func TestDistinctSubPagesNoInterference(t *testing.T) {
	// Writes to different sub-pages by different cells don't invalidate
	// each other (the paper's anti-false-sharing layout).
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		spA := memory.Addr(0).SubPage()
		spB := memory.Addr(memory.SubPageSize).SubPage()
		ensureWritable(d, p, 0, spA)
		ensureWritable(d, p, 1, spB)
		ensureWritable(d, p, 0, spA)
		ensureWritable(d, p, 1, spB)
	})
	if got := d.Stats().WriteFetches; got != 2 {
		t.Errorf("WriteFetches = %d, want 2 (no ping-pong across sub-pages)", got)
	}
	if d.Stats().Invalidations != 0 {
		t.Errorf("Invalidations = %d, want 0", d.Stats().Invalidations)
	}
}

func TestPropertyBitset(t *testing.T) {
	f := func(ops []uint16) bool {
		var b bitset // nil = empty; grows on demand
		ref := map[int]bool{}
		for _, op := range ops {
			i := int(op) % 1088
			if op%2 == 0 {
				b.set(i)
				ref[i] = true
			} else {
				b.clear(i)
				delete(ref, i)
			}
		}
		n := 0
		low := -1
		for i := 0; i < 1088; i++ {
			if ref[i] {
				n++
				if low < 0 {
					low = i
				}
			}
			if b.has(i) != ref[i] {
				return false
			}
		}
		return b.count() == n && b.lowest() == low && b.empty() == (n == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHolderInvariants(t *testing.T) {
	// After any interleaving of reads/writes by random cells: if the state
	// is Exclusive or Atomic there is exactly one holder; Shared implies
	// >= 1 holder; a holder and placeholder set never intersect.
	f := func(ops []uint8) bool {
		e := sim.NewEngine()
		d := NewDirectory(e, fabric.NewRing(e, fabric.DefaultRingConfig(8)))
		ok := true
		e.Spawn("driver", func(p *sim.Process) {
			for _, op := range ops {
				cell := int(op) % 8
				sp := memory.SubPageID(op / 8 % 4)
				if op%3 == 0 {
					ensureWritable(d, p, cell, sp)
				} else {
					ensureReadable(d, p, cell, sp)
				}
			}
			for sp := memory.SubPageID(0); sp < 4; sp++ {
				en := d.entries[sp]
				if en == nil {
					continue
				}
				switch d.StateOf(sp) {
				case Exclusive, Atomic:
					if en.holders.count() != 1 {
						ok = false
					}
				case Shared:
					if en.holders.count() < 1 {
						ok = false
					}
				}
				for c := 0; c < 8; c++ {
					if en.holders.has(c) && en.placeholders.has(c) {
						ok = false
					}
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReadersCombineIntoOneFetch(t *testing.T) {
	// A herd of spinners refetching the same flag after an invalidation is
	// the paper's read-snarfing showcase: one transaction serves them all.
	e := sim.NewEngine()
	d := NewDirectory(e, fabric.NewRing(e, fabric.DefaultRingConfig(32)))
	for c := 0; c < 16; c++ {
		c := c
		e.Spawn("reader", func(p *sim.Process) {
			ensureReadable(d, p, c, 0)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().ReadFetches; got != 1 {
		t.Errorf("ReadFetches = %d for 16 simultaneous readers, want 1 (combined)", got)
	}
	if d.HolderCount(0) != 16 {
		t.Errorf("holders = %d, want 16", d.HolderCount(0))
	}
}

func TestJoinerRefetchesAfterRacingInvalidation(t *testing.T) {
	// Reader joins an in-flight fetch; a writer invalidates right at
	// completion; the joiner must not hang — it issues its own fetch.
	e := sim.NewEngine()
	d := NewDirectory(e, fabric.NewRing(e, fabric.DefaultRingConfig(32)))
	e.Spawn("reader0", func(p *sim.Process) {
		ensureReadable(d, p, 0, 0)
	})
	e.Spawn("joiner", func(p *sim.Process) {
		p.Sleep(10)
		ensureReadable(d, p, 1, 0)
		if !d.HasValid(1, 0) {
			// A still-later writer may have invalidated us again; what
			// matters is that ensureReadable returned.
			t.Log("joiner invalidated after return (ok)")
		}
	})
	e.Spawn("writer", func(p *sim.Process) {
		p.Sleep(20)
		ensureWritable(d, p, 2, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStateStrings(t *testing.T) {
	cases := map[State]string{
		Invalid: "invalid", Shared: "shared", Exclusive: "exclusive",
		Atomic: "atomic", State(9): "State(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestIsWritableTransitions(t *testing.T) {
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		if d.IsWritable(0, 0) {
			t.Error("unmapped sub-page writable")
		}
		ensureWritable(d, p, 0, 0)
		if !d.IsWritable(0, 0) {
			t.Error("owner not writable")
		}
		ensureReadable(d, p, 1, 0)
		if d.IsWritable(0, 0) {
			t.Error("still writable with a second sharer")
		}
	})
}

func TestCrossDomainTargetSelection(t *testing.T) {
	e := sim.NewEngine()
	d := NewDirectory(e, fabric.NewRing(e, fabric.DefaultRingConfig(64)))
	d.SameDomain = func(a, b int) bool { return a/32 == b/32 }
	inProc(t, e, func(p *sim.Process) {
		// Holders on both leaves; a writer on leaf 0 must route through a
		// leaf-1 holder.
		ensureReadable(d, p, 1, 0)
		ensureReadable(d, p, 40, 0)
		en := d.get(0)
		if x := d.crossDomainTarget(0, en.holders); x != 40 {
			t.Errorf("crossDomainTarget = %d, want 40", x)
		}
		// All holders local: no cross-domain routing.
		ensureWritable(d, p, 1, 0)
		if x := d.crossDomainTarget(0, d.get(0).holders); x != -1 {
			t.Errorf("crossDomainTarget = %d, want -1 for local-only", x)
		}
	})
	// Nil topology: always -1.
	d.SameDomain = nil
	if x := d.crossDomainTarget(0, d.get(0).holders); x != -1 {
		t.Errorf("crossDomainTarget without topology = %d", x)
	}
}

func TestSnarfingDisabledIssuesSeparateFetches(t *testing.T) {
	e := sim.NewEngine()
	d := NewDirectory(e, fabric.NewRing(e, fabric.DefaultRingConfig(32)))
	d.DisableSnarfing = true
	for c := 0; c < 8; c++ {
		c := c
		e.Spawn("r", func(p *sim.Process) { ensureReadable(d, p, c, 0) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().ReadFetches; got != 8 {
		t.Errorf("ReadFetches = %d with snarfing disabled, want 8", got)
	}
	if d.Stats().Snarfs != 0 {
		t.Errorf("Snarfs = %d with snarfing disabled", d.Stats().Snarfs)
	}
}

// newFaultyDir builds a directory with NACK injection at the given rate.
func newFaultyDir(rate float64, seed uint64) (*sim.Engine, *Directory, *faults.Injector) {
	e := sim.NewEngine()
	d := NewDirectory(e, fabric.NewRing(e, fabric.DefaultRingConfig(32)))
	inj := faults.New(faults.Config{NACKRate: rate}, seed)
	d.Faults = inj
	return e, d, inj
}

func TestNACKRetryCostsTransitAndBackoff(t *testing.T) {
	// Rate 1.0 with MaxRetries 3: every transaction absorbs exactly 3
	// NACKs (the bound), so a cold read costs 4 transits plus backoff.
	e := sim.NewEngine()
	d := NewDirectory(e, fabric.NewRing(e, fabric.DefaultRingConfig(32)))
	d.Faults = faults.New(faults.Config{NACKRate: 1.0, MaxRetries: 3}, 1)
	inProc(t, e, func(p *sim.Process) {
		lat, remote := ensureReadable(d, p, 0, 0)
		if !remote {
			t.Fatal("cold read not remote")
		}
		st := d.Stats()
		if st.NACKs != 3 || st.Retries != 3 {
			t.Errorf("NACKs/Retries = %d/%d, want 3/3", st.NACKs, st.Retries)
		}
		want := 4*remoteLat + st.BackoffTime
		if lat != want {
			t.Errorf("latency = %v, want 4 transits + backoff = %v", lat, want)
		}
		if st.MaxRetryRun != 3 {
			t.Errorf("MaxRetryRun = %d, want 3", st.MaxRetryRun)
		}
	})
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("invariants after bounded retries: %v", err)
	}
}

func TestNACKRetryAllPathsAndDeterminism(t *testing.T) {
	run := func(seed uint64) (sim.Time, Stats) {
		e, d, _ := newFaultyDir(0.3, seed)
		var end sim.Time
		d.Checked = true
		e.Spawn("a", func(p *sim.Process) {
			for k := 0; k < 20; k++ {
				sp := memory.SubPageID(k % 4)
				ensureReadable(d, p, 0, sp)
				ensureWritable(d, p, 0, sp)
				if ok, _ := getSubPage(d, p, 0, sp); ok {
					d.ReleaseSubPage(p, 0, sp)
				}
				d.Poststore(0, sp, nil)
				d.Prefetch(0, memory.SubPageID(4+k%4), nil)
			}
			end = p.Now()
		})
		e.Spawn("b", func(p *sim.Process) {
			for k := 0; k < 20; k++ {
				sp := memory.SubPageID(k % 4)
				ensureReadable(d, p, 1, sp)
				ensureWritable(d, p, 1, sp)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("invariants violated under faults: %v", err)
		}
		return end, d.Stats()
	}
	t1, s1 := run(9)
	t2, s2 := run(9)
	if t1 != t2 || s1 != s2 {
		t.Errorf("same seed diverged: t=%v/%v stats=%+v/%+v", t1, t2, s1, s2)
	}
	if s1.NACKs == 0 || s1.BackoffTime == 0 {
		t.Errorf("no NACKs injected at rate 0.3: %+v", s1)
	}
	if s1.MaxRetryRun > faults.DefaultMaxRetries {
		t.Errorf("retry run %d exceeds bound", s1.MaxRetryRun)
	}
}

func TestInvariantCheckerDetectsCorruption(t *testing.T) {
	e, d := newDir()
	inProc(t, e, func(p *sim.Process) {
		ensureWritable(d, p, 0, 0)
		ensureReadable(d, p, 1, 1)
	})
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("healthy directory flagged: %v", err)
	}

	// Corrupt: holder that is also a place-holder.
	en := d.get(0)
	en.placeholders.set(0)
	err := d.CheckInvariants()
	ie, ok := err.(*InvariantError)
	if !ok {
		t.Fatalf("CheckInvariants = %v, want *InvariantError", err)
	}
	if ie.SubPage != 0 {
		t.Errorf("violation on sub-page %d, want 0", uint64(ie.SubPage))
	}
	en.placeholders.clear(0)

	// Corrupt: atomic with no owner.
	en.atomic = true
	en.owner = -1
	if err := d.CheckInvariants(); err == nil {
		t.Error("atomic-without-owner not detected")
	}
	en.atomic = false

	// Corrupt: owner without a valid copy.
	en2 := d.get(1)
	en2.owner = 5
	if err := d.CheckInvariants(); err == nil {
		t.Error("ownerless-copy corruption not detected")
	}
}

func TestCheckedModeRecordsViolationAtMutation(t *testing.T) {
	e, d := newDir()
	d.Checked = true
	inProc(t, e, func(p *sim.Process) {
		ensureReadable(d, p, 0, 0)
		// Sabotage the entry, then trigger a checked mutation on it.
		d.get(0).placeholders.set(0)
		d.Drop(2, 0) // touches the entry; checkpoint must fire
	})
	if d.violation == nil {
		t.Fatal("checked mode missed an invariant violation")
	}
	if err := d.CheckInvariants(); err == nil {
		t.Error("CheckInvariants must surface the recorded violation")
	}
}

func TestCheckedModeCleanOnHealthyWorkload(t *testing.T) {
	e, d := newDir()
	d.Checked = true
	for c := 0; c < 4; c++ {
		c := c
		e.Spawn("w", func(p *sim.Process) {
			for k := 0; k < 10; k++ {
				sp := memory.SubPageID(k % 3)
				ensureReadable(d, p, c, sp)
				ensureWritable(d, p, c, sp)
				if ok, _ := getSubPage(d, p, c, sp); ok {
					d.ReleaseSubPage(p, c, sp)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("healthy contended workload flagged: %v", err)
	}
}
