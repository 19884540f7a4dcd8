// Package ksync implements the synchronization algorithms measured in the
// paper: the hardware exclusive lock and a software read-write ticket lock
// (Section 3.2.1), and the five barrier families with their global-wakeup
// variants (Section 3.2.2):
//
//	counter         naive central counter, spin on the counter itself
//	tree            dynamic combining binary tree, tree wakeup
//	tree(M)         same arrival, global wakeup flag
//	dissemination   Hensgen/Finkel/Manber message rounds
//	tournament      statically paired binary tree, tree wakeup
//	tournament(M)   same arrival, global wakeup flag
//	mcs             Mellor-Crummey/Scott: 4-ary arrival, binary wakeup
//	mcs(M)          same arrival, global wakeup flag
//	system          library barrier: combining-tree arrival + global flag
//	                with per-call library overhead
//
// All algorithms are written against the machine.Proc interface and run
// unchanged on the KSR ring, the Symmetry bus, and the cacheless
// Butterfly — reproducing the paper's cross-architecture comparison.
//
// Signalling convention: flags and counters hold monotonically increasing
// epoch values rather than booleans, so every barrier is reusable without
// reset races; a signal for episode e writes e+1 and a waiter spins for
// >= e+1.
package ksync

import (
	"repro/internal/machine"
	"repro/internal/memory"
)

// Barrier is a reusable P-process barrier.
type Barrier interface {
	// Name returns the figure label ("tournament(M)", ...).
	Name() string
	// Wait blocks p until all participants of the episode have arrived.
	Wait(p *machine.Proc)
}

// Factory constructs a barrier for procs participants on m.
type Factory struct {
	Name string
	New  func(m *machine.Machine, procs int) Barrier
}

// Algorithms lists every barrier in the order of the paper's Figure 4
// legend. Each factory wraps its barrier with Traced and Profiled, so
// barrier phases show up in traces on observed machines and in profiles
// on profiled ones, at no cost to plain machines.
func Algorithms() []Factory {
	return []Factory{
		{"system", func(m *machine.Machine, n int) Barrier { return Traced(m, Profiled(m, NewSystem(m, n))) }},
		{"counter", func(m *machine.Machine, n int) Barrier { return Traced(m, Profiled(m, NewCounter(m, n))) }},
		{"tree", func(m *machine.Machine, n int) Barrier { return Traced(m, Profiled(m, NewTree(m, n, false))) }},
		{"tree(M)", func(m *machine.Machine, n int) Barrier { return Traced(m, Profiled(m, NewTree(m, n, true))) }},
		{"dissemination", func(m *machine.Machine, n int) Barrier { return Traced(m, Profiled(m, NewDissemination(m, n))) }},
		{"tournament", func(m *machine.Machine, n int) Barrier { return Traced(m, Profiled(m, NewTournament(m, n, false))) }},
		{"tournament(M)", func(m *machine.Machine, n int) Barrier { return Traced(m, Profiled(m, NewTournament(m, n, true))) }},
		{"mcs", func(m *machine.Machine, n int) Barrier { return Traced(m, Profiled(m, NewMCS(m, n, false))) }},
		{"mcs(M)", func(m *machine.Machine, n int) Barrier { return Traced(m, Profiled(m, NewMCS(m, n, true))) }},
	}
}

// ByName returns the factory with the given name, or false.
func ByName(name string) (Factory, bool) {
	for _, f := range Algorithms() {
		if f.Name == name {
			return f, true
		}
	}
	return Factory{}, false
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	r := 0
	for v := 1; v < n; v <<= 1 {
		r++
	}
	return r
}

// signal writes epoch e to a flag word, optionally pushing it to waiters
// with poststore (the paper used poststore throughout its barrier
// implementations to feed read-snarfing).
func signal(p *machine.Proc, addr memory.Addr, e uint64, poststore bool) {
	p.WriteWord(addr, e)
	if poststore {
		p.Poststore(addr)
	}
}
