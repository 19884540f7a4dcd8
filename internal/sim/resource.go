package sim

// Resource is a counted resource with a FIFO wait queue, e.g. the slots of
// one ring or the single bus of a Symmetry-like machine. Waiters are granted
// strictly in arrival order, which both matches the round-robin fairness of
// the KSR ring protocol and keeps simulations deterministic.
type Resource struct {
	eng      *Engine
	name     string
	blockWhy string // precomputed park reason, so AcquireThen never allocates
	capacity int
	inUse    int
	q        []waiter
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

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// AcquireThen claims a unit for p, inside p's Run step, and calls
// granted with the simulated time spent waiting — at once when a unit is
// free, otherwise as the step of the wake the FIFO grant fires. granted
// may be nil.
//
//ksr:hotpath
func (r *Resource) AcquireThen(p *Process, granted func(wait Time)) {
	p.mustStep()
	if r.inUse < r.capacity {
		r.inUse++
		if granted != nil {
			granted(0)
		}
		return
	}
	start := r.eng.now
	r.q = append(r.q, waiter{proc: p, arrived: start})
	p.grantStart, p.granted = start, granted
	p.armBlocked(r.blockWhy, p.grantStep)
}

// AcquireAsync queues fn to run (in engine context) as soon as a unit can
// be claimed for it. Used by fire-and-forget transactions such as
// poststore, which proceed without a process attached.
//
//ksr:hotpath
func (r *Resource) AcquireAsync(fn func()) {
	if r.inUse < r.capacity && len(r.q) == 0 {
		r.inUse++
		r.eng.Schedule(0, fn)
		return
	}
	r.q = append(r.q, waiter{fn: fn, arrived: r.eng.now})
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
	if w.proc != nil {
		r.eng.scheduleResume(0, w.proc)
	} else {
		r.eng.Schedule(0, w.fn)
	}
}
