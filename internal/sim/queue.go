package sim

import "math/bits"

// The event queue is a calendar queue tuned for the short-delay
// distribution the machine models generate: most events land within a few
// microseconds of now (cache fills, ring hops and slot holds, zero-delay
// wakeups), with a long tail of far-future events (Compute blocks,
// watchdog-scale sleeps).
//
// Near-future events go into a rolling wheel of wheelSize one-nanosecond
// buckets covering [now, now+wheelSize), where now is the time of the last
// pop: bucket at&wheelMask holds exactly one instant of that window. The
// window rolls forward with every pop, so nothing is ever moved between
// buckets. A bucket is one tail pointer into a circular list whose
// tail.next is the head, so appends and pops are O(1) and a bucket costs
// one word. Since one bucket holds one instant, its FIFO list is in
// schedule (seq) order and the engine's same-time tie-break comes for
// free. An occupancy bitmap, one bit per bucket, and a summary bitmap,
// one bit per occupancy word, let pop find the next non-empty bucket
// circularly from now in a few word operations.
//
// Events at least wheelSize ahead go to a concrete-typed binary min-heap
// ordered by (at, seq) and stay there: pop takes the earlier of the heap
// top and the wheel's next head by (at, seq). An instant can have events
// in both (heap pushes at a time all come before its wheel pushes), and
// the merge keeps them in seq order.
//
// Everything is intrusive (events chain through their own next pointers),
// so the queue performs no allocation on push or pop.

const (
	wheelBits = 13
	wheelSize = 1 << wheelBits // window width in simulated nanoseconds
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64 // occupancy words, one bit per bucket
)

type eventQueue struct {
	now        Time // time of the last pop; the wheel covers [now, now+wheelSize)
	size       int
	wheelCount int
	tails      [wheelSize]*event // per-instant circular FIFO; tail.next is the head
	occ        [occWords]uint64
	summary    [occWords / 64]uint64 // bit w set when occ[w] != 0
	overflow   []*event              // min-heap by (at, seq)
}

func eventBefore(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts ev. ev.at must be >= the at of the most recently popped
// event (the engine never schedules into the past).
//
//ksr:hotpath
func (q *eventQueue) push(ev *event) {
	ev.queued = true
	q.size++
	if ev.at-q.now < wheelSize {
		q.bucketAppend(ev)
		return
	}
	ev.next = nil
	q.heapPush(ev)
}

//ksr:hotpath
func (q *eventQueue) bucketAppend(ev *event) {
	i := int(ev.at) & wheelMask
	if tail := q.tails[i]; tail != nil {
		ev.next = tail.next
		tail.next = ev
	} else {
		ev.next = ev
		q.occ[i>>6] |= 1 << (i & 63)
		q.summary[i>>12] |= 1 << (i >> 6 & 63)
	}
	q.tails[i] = ev
	q.wheelCount++
}

// pop removes and returns the earliest event by (at, seq), or nil when the
// queue is empty.
//
//ksr:hotpath
func (q *eventQueue) pop() *event {
	if q.size == 0 {
		return nil
	}
	var ev *event
	if q.wheelCount == 0 {
		ev = q.heapPop()
	} else if i := q.nextOccupied(); len(q.overflow) > 0 && eventBefore(q.overflow[0], q.tails[i].next) {
		ev = q.heapPop()
	} else {
		ev = q.bucketPop(i)
	}
	q.size--
	q.now = ev.at
	ev.next = nil
	ev.queued = false
	return ev
}

// bucketPop unlinks the head of occupied bucket i.
//
//ksr:hotpath
func (q *eventQueue) bucketPop(i int) *event {
	tail := q.tails[i]
	ev := tail.next
	if ev == tail {
		q.tails[i] = nil
		if q.occ[i>>6] &^= 1 << (i & 63); q.occ[i>>6] == 0 {
			q.summary[i>>12] &^= 1 << (i >> 6 & 63)
		}
	} else {
		tail.next = ev.next
	}
	q.wheelCount--
	return ev
}

// peek returns the earliest pending timestamp without dequeuing. It does
// not mutate the queue: the PDES coordinator peeks (NextEventAt, and
// RunWindow's pause check) and then injects cross-partition messages,
// which must land relative to the last pop, the engine's clock.
//
//ksr:hotpath
func (q *eventQueue) peek() (Time, bool) {
	if q.size == 0 {
		return 0, false
	}
	if q.wheelCount == 0 {
		return q.overflow[0].at, true
	}
	at := q.tails[q.nextOccupied()].at
	if len(q.overflow) > 0 && q.overflow[0].at < at {
		at = q.overflow[0].at
	}
	return at, true
}

// nextOccupied returns the bucket of the wheel's earliest event: the
// first occupied bucket circularly from now's. The caller guarantees
// wheelCount > 0. Circular order from now's bucket c is c's word from
// bit c up, the later words, the earlier words from word 0, and last
// c's word below bit c (the far end of the window).
//
//ksr:hotpath
func (q *eventQueue) nextOccupied() int {
	c := int(q.now) & wheelMask
	w := c >> 6
	if word := q.occ[w] >> (c & 63); word != 0 {
		return c + bits.TrailingZeros64(word)
	}
	n := q.occupiedWordFrom(w + 1)
	if n < 0 {
		n = q.occupiedWordFrom(0)
	}
	return n<<6 + bits.TrailingZeros64(q.occ[n])
}

// occupiedWordFrom returns the first non-empty occupancy word at or after
// w, or -1 if there is none.
//
//ksr:hotpath
func (q *eventQueue) occupiedWordFrom(w int) int {
	for s := w >> 6; s < len(q.summary); s++ {
		word := q.summary[s]
		if s == w>>6 {
			word &^= 1<<(w&63) - 1
		}
		if word != 0 {
			return s<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

//ksr:hotpath
func (q *eventQueue) heapPush(ev *event) {
	// Self-append: amortized growth of the heap's own backing array is
	// the one reallocation the queue tolerates.
	q.overflow = append(q.overflow, ev)
	h := q.overflow
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.overflow = h
}

//ksr:hotpath
func (q *eventQueue) heapPop() *event {
	h := q.overflow
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && eventBefore(h[l], h[least]) {
			least = l
		}
		if r < n && eventBefore(h[r], h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	q.overflow = h
	return ev
}
