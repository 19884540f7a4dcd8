package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestQueueMatchesReference drives the calendar queue with a randomized
// mix of near-future pushes, far-future pushes (overflow heap), and pops,
// and checks every pop against a sorted reference ordered by (at, seq).
// Delays are drawn from the machine model's real distribution shape:
// mostly sub-microsecond with a heavy tail far past the wheel window,
// plus the window's edges. A final phase keeps 32 events in flight, one
// pushed per pop, while the clock runs through 300 laps of the wheel.
func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	var ref []*event
	var now Time
	var seq uint64

	push := func(d Time) {
		seq++
		ev := &event{at: now + d, seq: seq}
		q.push(ev)
		i := sort.Search(len(ref), func(i int) bool { return eventBefore(ev, ref[i]) })
		ref = append(ref, nil)
		copy(ref[i+1:], ref[i:])
		ref[i] = ev
	}
	randDelay := func() Time {
		switch rng.Intn(12) {
		case 0, 1, 2: // zero-delay wakeup burst
			return 0
		case 3, 4, 5, 6: // ring hop / cache fill scale
			return Time(rng.Intn(2000))
		case 7: // the window's edges: last wheel bucket, first heap instants
			return wheelSize - 1 + Time(rng.Intn(3))
		case 8, 9: // beyond one window
			return wheelSize + Time(rng.Intn(4*wheelSize))
		case 10: // slot-hold scale, inside the window
			return Time(wheelSize/2 + rng.Intn(wheelSize/2))
		default: // compute-block scale, deep in the overflow heap
			return Time(rng.Int63n(int64(10 * Millisecond)))
		}
	}
	popCheck := func(phase string) {
		t.Helper()
		got := q.pop()
		want := ref[0]
		ref = ref[1:]
		if got != want {
			t.Fatalf("%s: pop = (at=%d seq=%d), want (at=%d seq=%d)",
				phase, got.at, got.seq, want.at, want.seq)
		}
		if got.at < now {
			t.Fatalf("%s: time went backwards: %d < %d", phase, got.at, now)
		}
		now = got.at
	}

	for round := 0; round < 200; round++ {
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			push(randDelay())
		}
		for i, n := 0, 1+rng.Intn(len(ref)); i < n && len(ref) > 0; i++ {
			popCheck("random")
		}
	}
	for len(ref) > 0 {
		popCheck("drain")
	}
	for i := 0; i < 32; i++ {
		push(Time(rng.Intn(3 * wheelSize)))
	}
	for laps := now + 300*wheelSize; now < laps; {
		popCheck("laps")
		if rng.Intn(8) == 0 {
			push(wheelSize - 1 + Time(rng.Intn(3)))
		} else {
			push(Time(rng.Intn(3 * wheelSize)))
		}
	}
	for len(ref) > 0 {
		popCheck("laps drain")
	}
	if ev := q.pop(); ev != nil {
		t.Fatalf("pop on empty queue = (at=%d seq=%d), want nil", ev.at, ev.seq)
	}
	if q.size != 0 || q.wheelCount != 0 || len(q.overflow) != 0 {
		t.Fatalf("drained queue not empty: size=%d wheel=%d overflow=%d",
			q.size, q.wheelCount, len(q.overflow))
	}
}

// TestQueueSameInstantFIFO checks that events at one instant pop in
// schedule order wherever they wait: all in the overflow heap, all in the
// wheel, or split between the two, as when an instant was a window away
// for its first pushes and inside the window for its later ones.
func TestQueueSameInstantFIFO(t *testing.T) {
	var q eventQueue
	const at = 3 * wheelSize / 2 // beyond the initial window
	var evs []*event
	for i := 0; i < 16; i++ {
		ev := &event{at: at, seq: uint64(i + 1)}
		evs = append(evs, ev)
		q.push(ev) // all go to the overflow heap
	}
	for i, want := range evs {
		if got := q.pop(); got != want {
			t.Fatalf("heap pop %d: seq=%d, want seq=%d", i, got.seq, want.seq)
		}
	}
	// Now the window covers `at`: same-instant pushes go straight to the
	// wheel and must still pop FIFO.
	for i := 0; i < 16; i++ {
		evs[i] = &event{at: at, seq: uint64(100 + i)}
		q.push(evs[i])
	}
	for i, want := range evs {
		if got := q.pop(); got != want {
			t.Fatalf("wheel pop %d: seq=%d, want seq=%d", i, got.seq, want.seq)
		}
	}
	// Split: the instant split is a window ahead for the first three
	// pushes (heap) and inside the window, after one pop, for the next
	// three (wheel). A far event behind them goes to the heap.
	split := Time(at + wheelSize + 10)
	var want []*event
	for i := 0; i < 3; i++ {
		want = append(want, &event{at: split, seq: uint64(200 + i)})
		q.push(want[i])
	}
	step := &event{at: at + 20, seq: 203}
	q.push(step)
	if got := q.pop(); got != step {
		t.Fatalf("split: first pop seq=%d, want the step event", got.seq)
	}
	for i := 0; i < 3; i++ {
		ev := &event{at: split, seq: uint64(204 + i)}
		want = append(want, ev)
		q.push(ev)
	}
	far := &event{at: split + wheelSize, seq: 207}
	want = append(want, far)
	q.push(far)
	if len(q.overflow) != 4 || q.wheelCount != 3 {
		t.Fatalf("split: %d events in the heap and %d in the wheel, want 4 and 3",
			len(q.overflow), q.wheelCount)
	}
	for i, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("split pop %d: (at=%d seq=%d), want (at=%d seq=%d)", i, got.at, got.seq, w.at, w.seq)
		}
	}
}

// TestQueuePeekDoesNotAdvanceWindow pins peek's non-mutating contract.
// The PDES coordinator peeks a partition whose only pending event is far
// in the future (a long Compute block) and then injects a cross-partition
// message stamped just past the lookahead, far below that event: peek
// must report the injected message next and pops must stay in time
// order.
func TestQueuePeekDoesNotAdvanceWindow(t *testing.T) {
	var q eventQueue
	far := &event{at: Millisecond, seq: 1} // far beyond the initial window
	q.push(far)
	if at, ok := q.peek(); !ok || at != far.at {
		t.Fatalf("peek = (%v, %v), want (%v, true)", at, ok, far.at)
	}
	near := &event{at: 5 * Microsecond, seq: 2} // below far
	q.push(near)
	if at, ok := q.peek(); !ok || at != near.at {
		t.Fatalf("peek after near push = (%v, %v), want (%v, true)", at, ok, near.at)
	}
	if got := q.pop(); got != near {
		t.Fatalf("first pop = (at=%d seq=%d), want the near event", got.at, got.seq)
	}
	if got := q.pop(); got != far {
		t.Fatalf("second pop = (at=%d seq=%d), want the far event", got.at, got.seq)
	}
}

// BenchmarkQueueShortDelays exercises the pure wheel path.
func BenchmarkQueueShortDelays(b *testing.B) {
	var q eventQueue
	var now Time
	evs := make([]event, 64)
	for i := range evs {
		evs[i].at = Time(i * 7 % 100)
		evs[i].seq = uint64(i)
		q.push(&evs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		now = ev.at
		ev.at = now + Time(i%100)
		ev.seq = uint64(i + 64)
		q.push(ev)
	}
}
