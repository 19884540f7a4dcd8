package sim

// Resource is a counted resource with a FIFO wait queue, e.g. the slots of
// one ring or the single bus of a Symmetry-like machine. Waiters are granted
// strictly in arrival order, which both matches the round-robin fairness of
// the KSR ring protocol and keeps simulations deterministic.
type Resource struct {
	eng      *Engine
	name     string
	blockWhy string // precomputed park reason, so Acquire never allocates
	capacity int
	inUse    int
	q        []waiter

	// Stats.
	grants    uint64
	waitTotal Time
	maxQueue  int
}

type waiter struct {
	proc    *Process // nil for callback waiters
	fn      func()   // nil for process waiters
	arrived Time
}

// NewResource creates a resource with the given capacity (must be >= 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1: " + name)
	}
	return &Resource{eng: e, name: name, blockWhy: "resource " + name, capacity: capacity}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiters.
func (r *Resource) QueueLen() int { return len(r.q) }

// Acquire blocks process p until a unit is available, then claims it.
// It returns the simulated time spent waiting.
//
//ksr:hotpath
func (r *Resource) Acquire(p *Process) Time {
	if r.inUse < r.capacity {
		r.inUse++
		r.grants++
		return 0
	}
	start := r.eng.now
	r.q = append(r.q, waiter{proc: p, arrived: start})
	if len(r.q) > r.maxQueue {
		r.maxQueue = len(r.q)
	}
	p.block(r.blockWhy)
	w := r.eng.now - start
	r.waitTotal += w
	return w
}

// AcquireThen is the continuation form of Acquire, for use inside p's
// Run step: it claims a unit and calls granted with the simulated time
// spent waiting — at once when a unit is free, otherwise as the step of
// the wake the FIFO grant fires. granted may be nil.
//
//ksr:hotpath
func (r *Resource) AcquireThen(p *Process, granted func(wait Time)) {
	p.mustStep()
	if r.inUse < r.capacity {
		r.inUse++
		r.grants++
		if granted != nil {
			granted(0)
		}
		return
	}
	start := r.eng.now
	r.q = append(r.q, waiter{proc: p, arrived: start})
	if len(r.q) > r.maxQueue {
		r.maxQueue = len(r.q)
	}
	p.grantRes, p.grantStart, p.granted = r, start, granted
	p.armBlocked(r.blockWhy, p.grantStep)
}

// TryAcquire claims a unit if one is free without waiting, reporting
// whether it succeeded.
//
//ksr:hotpath
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.q) == 0 {
		r.inUse++
		r.grants++
		return true
	}
	return false
}

// AcquireAsync queues fn to run (in engine context) as soon as a unit can
// be claimed for it. Used by fire-and-forget transactions such as
// poststore, which proceed without a process attached.
//
//ksr:hotpath
func (r *Resource) AcquireAsync(fn func()) {
	if r.inUse < r.capacity && len(r.q) == 0 {
		r.inUse++
		r.grants++
		r.eng.Schedule(0, fn)
		return
	}
	r.q = append(r.q, waiter{fn: fn, arrived: r.eng.now})
	if len(r.q) > r.maxQueue {
		r.maxQueue = len(r.q)
	}
}

// Release returns one unit and hands it to the head of the queue, if any.
// Must be called from engine context or from the running process.
//
//ksr:hotpath
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if len(r.q) == 0 {
		r.inUse--
		return
	}
	// Hand the unit directly to the head waiter: inUse stays constant.
	w := r.q[0]
	copy(r.q, r.q[1:])
	r.q = r.q[:len(r.q)-1]
	r.grants++
	if w.proc != nil {
		r.eng.scheduleResume(0, w.proc)
	} else {
		r.eng.Schedule(0, w.fn)
	}
}

// Grants returns the total number of successful acquisitions.
func (r *Resource) Grants() uint64 { return r.grants }

// TotalWait returns the cumulative simulated time processes spent queued.
func (r *Resource) TotalWait() Time { return r.waitTotal }

// MaxQueue returns the high-water mark of the wait queue.
func (r *Resource) MaxQueue() int { return r.maxQueue }
