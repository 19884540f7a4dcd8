package ksync

import (
	"repro/internal/machine"
	"repro/internal/memory"
)

// Tree is the dynamic combining-tree barrier (Algorithm 2): a counter per
// pair of processors forms the leaves of a binary tree whose higher levels
// are constructed dynamically as processors arrive — the last arriver at
// each node climbs, and the overall last reaches the root. The atomic
// fetch-and-increment at each node uses get_sub_page, exactly as the paper
// notes.
//
// Completion: with wakeupFlag false, notification descends the same binary
// tree (each climber signals the processor parked at every node it won);
// with wakeupFlag true — the paper's tree(M) — the root-reacher sets a
// global wakeup flag that everyone spins on, collapsing the wakeup tree
// and letting read-snarfing deliver one response to all spinners.
type Tree struct {
	m          *machine.Machine
	procs      int
	wakeupFlag bool
	// UsePoststore pushes flag writes to spinners' place-holders.
	UsePoststore bool

	levels   int
	counts   []memory.Addr // one padded counter per node, level-major
	flags    []memory.Addr // per-node completion flag (tree wakeup)
	levelOff []int         // node index offset per level
	global   memory.Addr   // global wakeup flag (tree(M))
	epoch    []uint64
}

// NewTree builds the combining-tree barrier. wakeupFlag selects tree(M).
func NewTree(m *machine.Machine, procs int, wakeupFlag bool) *Tree {
	b := &Tree{
		m:            m,
		procs:        procs,
		wakeupFlag:   wakeupFlag,
		UsePoststore: true,
		levels:       log2ceil(procs),
		epoch:        make([]uint64, procs),
	}
	if b.levels == 0 {
		b.levels = 1 // degenerate 1-proc barrier still has a root
	}
	total := 0
	for l := 0; l < b.levels; l++ {
		b.levelOff = append(b.levelOff, total)
		total += b.nodesAt(l)
	}
	counts := m.AllocPadded("barrier.tree.counts", int64(total))
	flags := m.AllocPadded("barrier.tree.flags", int64(total))
	for i := 0; i < total; i++ {
		b.counts = append(b.counts, counts.PaddedSlot(int64(i)))
		b.flags = append(b.flags, flags.PaddedSlot(int64(i)))
	}
	b.global = m.AllocPadded("barrier.tree.global", 1).PaddedSlot(0)
	return b
}

// nodesAt returns the node count of level l (level 0 pairs processors).
func (b *Tree) nodesAt(l int) int {
	span := 1 << (l + 1)
	return (b.procs + span - 1) / span
}

// arrivalsAt returns how many climbers reach node (l, g): one per
// non-empty child subtree.
func (b *Tree) arrivalsAt(l, g int) uint64 {
	span := 1 << (l + 1)
	if g*span+span/2 < b.procs {
		return 2
	}
	return 1
}

func (b *Tree) node(l, g int) int { return b.levelOff[l] + g }

// Name implements Barrier.
func (b *Tree) Name() string {
	if b.wakeupFlag {
		return "tree(M)"
	}
	return "tree"
}

// Wait implements Barrier.
func (b *Tree) Wait(p *machine.Proc) {
	id := p.CellID()
	k := b.epoch[id]
	b.epoch[id]++
	e := k + 1

	// Climb: at each level, the last arriver proceeds; others park.
	type won struct{ level, g int }
	var path []won
	stoppedAt := -1
	for l := 0; l < b.levels; l++ {
		g := id >> (l + 1)
		n := b.node(l, g)
		arr := b.arrivalsAt(l, g)
		old := p.FetchAdd(b.counts[n], 1)
		if old+1 < e*arr {
			stoppedAt = n
			break
		}
		path = append(path, won{l, g})
	}

	if b.wakeupFlag {
		// tree(M): root-reacher raises the global flag; everyone else
		// spins on it (read-snarfing serves the whole herd).
		if stoppedAt < 0 {
			signal(p, b.global, e, b.UsePoststore)
			return
		}
		p.SpinUntilAtLeast(b.global, e)
		return
	}

	// Tree wakeup: park at the lost node, then propagate down the nodes
	// this processor won (top-down), waking the processor parked at each.
	if stoppedAt >= 0 {
		p.SpinUntilAtLeast(b.flags[stoppedAt], e)
	}
	for i := len(path) - 1; i >= 0; i-- {
		w := path[i]
		if b.arrivalsAt(w.level, w.g) == 2 {
			signal(p, b.flags[b.node(w.level, w.g)], e, b.UsePoststore)
		}
	}
}
