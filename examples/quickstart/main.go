// Quickstart: build a simulated 32-cell KSR-1, run a small shared-memory
// program on 8 processors, and read the hardware performance monitor —
// the five-minute tour of the simulator's public surface.
package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/memory"
)

func main() {
	// A machine is a configuration plus New: here the calibrated KSR-1
	// (20 MHz cells, 256 KB sub-cache, 32 MB local cache, slotted ring).
	m := machine.New(machine.KSR1(32))

	// Shared memory is allocated from the System Virtual Address space.
	// AllocPadded gives each slot its own 128-byte sub-page, the paper's
	// discipline for avoiding false sharing on synchronization data.
	data := m.Alloc("data", 1<<20)
	results := m.AllocPadded("results", 8)

	// Run a program on 8 processors. Each Proc method charges simulated
	// time: cache hits, allocation overheads, ring transactions.
	const procs = 8
	elapsed, err := m.Run(procs, func(p *machine.Proc) {
		id := p.CellID()
		chunk := data.Size / procs
		base := data.At(int64(id) * chunk)

		// Stream through this processor's chunk: the first sweep faults
		// every sub-page across the ring, the second runs out of cache.
		p.ReadRange(base, chunk/memory.WordSize, memory.WordSize)
		p.ReadRange(base, chunk/memory.WordSize, memory.WordSize)

		// Do some arithmetic (one local operation = one CPU cycle)...
		p.Compute(50_000)

		// ...and publish a result word, pushing it to any waiting readers
		// with the KSR-1's poststore instruction.
		p.WriteWord(results.PaddedSlot(int64(id)), uint64(id)*100)
		p.Poststore(results.PaddedSlot(int64(id)))

		// Processor 0 gathers everyone's results.
		if id == 0 {
			p.SpinUntilAtLeast(results.PaddedSlot(procs-1), 1)
			var sum uint64
			for q := 0; q < procs; q++ {
				sum += p.ReadWord(results.PaddedSlot(int64(q)))
			}
			fmt.Printf("sum of results: %d\n", sum)
		}
	})
	if err != nil {
		fmt.Println("simulation error:", err)
		return
	}

	fmt.Printf("program took %v of simulated time\n", elapsed)
	mon := m.TotalMonitor()
	fmt.Printf("accesses: %d, sub-cache misses: %d, remote (ring) accesses: %d\n",
		mon.Accesses, mon.SubMisses, mon.RemoteAccesses)
	fmt.Printf("time on the ring: %v; ring transactions: %d\n",
		mon.RingTime, m.Fabric().Stats().Transactions)
}
