package sim

// Cond is a broadcast-only condition: processes wait on it and a broadcast
// wakes every waiter. The coherence layer uses one Cond per watched
// sub-page to model processors spinning on a locally cached value — the
// spin consumes no simulated events until an invalidation or update
// arrives, exactly like hardware spinning on a coherent cache line.
type Cond struct {
	eng      *Engine
	name     string
	blockWhy string // precomputed park reason, so Wait never allocates
	waiters  []*Process
}

// NewCond creates a condition variable.
func NewCond(e *Engine, name string) *Cond {
	return &Cond{eng: e, name: name, blockWhy: "cond " + name}
}

// Wait parks p until the next Broadcast.
//
//ksr:hotpath
func (c *Cond) Wait(p *Process) {
	c.waiters = append(c.waiters, p)
	p.block(c.blockWhy)
}

// WaitThen is the continuation form of Wait, for use inside p's Run
// step: it parks p until the next Broadcast and runs next (nil ends the
// chain) when the wake fires.
//
//ksr:hotpath
func (c *Cond) WaitThen(p *Process, next func()) {
	p.armBlocked(c.blockWhy, next)
	c.waiters = append(c.waiters, p)
}

// Broadcast wakes every current waiter, in wait order. New waiters that
// arrive after the broadcast wait for the next one. The waiter slice is
// reused: Broadcast only schedules the resumes and never runs them, so no
// new waiter can join while it iterates.
//
//ksr:hotpath
func (c *Cond) Broadcast() {
	if len(c.waiters) == 0 {
		return
	}
	for i, p := range c.waiters {
		c.eng.scheduleResume(0, p)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}
