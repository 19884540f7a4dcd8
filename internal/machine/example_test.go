package machine_test

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/memory"
)

// Build a KSR-1, run a two-processor program, and read the performance
// monitor — the minimal end-to-end use of the machine package.
func ExampleMachine_Run() {
	m := machine.New(machine.KSR1(32))
	flag := m.AllocPadded("flag", 1)

	elapsed, err := m.Run(2, func(p *machine.Proc) {
		if p.CellID() == 0 {
			p.Compute(1000) // 50 us of local work
			p.WriteWord(flag.PaddedSlot(0), 7)
		} else {
			v := p.SpinUntilAtLeast(flag.PaddedSlot(0), 1)
			fmt.Println("spinner saw", v)
		}
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("elapsed:", elapsed)
	// Output:
	// spinner saw 7
	// elapsed: 68.4us
}

// The four granularities of the simulated memory system.
func ExampleMachine_Alloc() {
	m := machine.New(machine.KSR1(4))
	r := m.Alloc("data", 100)
	fmt.Println("page-aligned:", r.Base%memory.PageSize == 0)
	fmt.Println("rounded size:", r.Size)
	// Output:
	// page-aligned: true
	// rounded size: 16384
}
