// COMA tour: a guided walk through the ALLCACHE coherence protocol —
// watch one sub-page move through shared, exclusive, and atomic states,
// see read-snarfing fill a herd of spinners with one transaction, and
// watch poststore push an update into place-holders while the writer
// keeps computing.
package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/memory"
)

func main() {
	m := machine.New(machine.KSR1(32))
	page := m.AllocPadded("tour", 1)
	addr := page.PaddedSlot(0)
	sp := addr.SubPage()
	dir := m.Directory()

	state := func() string {
		return fmt.Sprintf("state=%v holders=%d", dir.StateOf(sp), dir.HolderCount(sp))
	}

	_, err := m.Run(6, func(p *machine.Proc) {
		id := p.CellID()
		say := func(format string, args ...any) {
			fmt.Printf("t=%-10v cell%-2d %s   [%s]\n",
				p.Now(), id, fmt.Sprintf(format, args...), state())
		}

		switch id {
		case 0: // the writer
			p.WriteWord(addr, 1)
			say("wrote 1 — first write installs the line exclusively")

			p.Compute(4000) // let the readers share it
			p.WriteWord(addr, 2)
			say("wrote 2 — upgrade invalidated every reader to a place-holder")

			p.Compute(1000)
			p.WriteWord(addr, 3)
			p.Poststore(addr)
			say("wrote 3 and issued poststore — update circulates while I compute")
			p.Compute(4000)
			say("poststore landed: place-holders refilled, line now shared")

			p.Compute(2000)
			p.AcquireSubPage(addr)
			say("get_sub_page — atomic state locks the line")
			p.Compute(2000)
			p.ReleaseSubPage(addr)
			say("release_sub_page — atomic state dropped")

		default: // five readers / spinners
			p.Compute(int64(500 * id)) // stagger the first reads
			v := p.ReadWord(addr)
			say("read %d — joined the sharers", v)

			// All five spin; the upgrade to 2 invalidates them, and their
			// refetches COMBINE into one ring transaction (snarfing).
			v = p.SpinUntilAtLeast(addr, 2)
			if id == 1 {
				say("saw %d — all %d spinners refilled by snarfing", v, 5)
			}

			// Go compute for a while (not spinning). The writer's next
			// update invalidates our copy, but the poststore refills the
			// place-holder before we come back — so the read below is a
			// local hit with the new value, no ring transaction.
			p.Compute(3000)
			before := p.Machine().CellAt(id).Monitor().RemoteAccesses
			v = p.ReadWord(addr)
			after := p.Machine().CellAt(id).Monitor().RemoteAccesses
			if id == 1 {
				say("read %d from the poststore-filled copy (remote accesses: +%d)",
					v, after-before)
			}
		}
	})
	if err != nil {
		fmt.Println("simulation error:", err)
		return
	}

	st := dir.Stats()
	fmt.Println()
	fmt.Printf("protocol totals: %d read fetches, %d write fetches, %d invalidations,\n",
		st.ReadFetches, st.WriteFetches, st.Invalidations)
	fmt.Printf("                 %d snarfs, %d poststore fills, %d gsp attempts\n",
		st.Snarfs, st.PoststoreFill, st.GSPAttempts)
	fmt.Printf("sub-page %d word is %d at the end\n",
		uint64(sp), m.Space().ReadWord(memory.Addr(addr)))
}
