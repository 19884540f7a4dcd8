package experiments

import (
	"fmt"
	"strings"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// LatencyConfig parameterizes the Figure 2 experiment.
type LatencyConfig struct {
	Machine MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`
	Cells   int         `help:"machine size"`
	Procs   []int       `help:"comma-separated processor counts (default: the paper's sweep up to -cells)"`
	// RegionBytes is the size of each processor's private array (the
	// paper used 1 MB; the default is smaller to keep runs quick).
	RegionBytes int64 `flag:"region" help:"per-processor array bytes (paper: 1048576)"`

	observed
}

// DefaultLatencyConfig returns the standard Figure 2 setup.
func DefaultLatencyConfig() LatencyConfig {
	return LatencyConfig{Machine: KSR1Kind, Cells: 32, RegionBytes: 256 * 1024}
}

// LatencyResult holds the four Figure 2 curves plus the sub-cache check,
// all in microseconds per access.
type LatencyResult struct {
	Procs        []int
	SubCacheRead float64 // single measurement (P-independent)
	LocalRead    []float64
	LocalWrite   []float64
	NetRead      []float64
	NetWrite     []float64
}

// String renders the figure.
func (r LatencyResult) String() string {
	return metrics.Figure("Figure 2: Read/Write Latencies on the KSR", "us/access",
		[]metrics.Series{
			{Label: "net read", Procs: r.Procs, Values: r.NetRead},
			{Label: "net write", Procs: r.Procs, Values: r.NetWrite},
			{Label: "local read", Procs: r.Procs, Values: r.LocalRead},
			{Label: "local write", Procs: r.Procs, Values: r.LocalWrite},
		}) + fmt.Sprintf("sub-cache read: %.4f us (published: 2 cycles = 0.1 us)\n", r.SubCacheRead)
}

// RunLatency reproduces Figure 2 with the paper's method: each processor
// measures its own private arrays for the local-cache curves (array A
// resident in the local cache, array B flooding the sub-cache first), and
// its neighbour's array for the network curves, all processors measuring
// simultaneously so the curves expose any latency growth with load.
func RunLatency(cfg LatencyConfig) (LatencyResult, error) {
	if err := checkProcs(cfg.Procs); err != nil {
		return LatencyResult{}, err
	}
	if cfg.RegionBytes <= 0 {
		return LatencyResult{}, fmt.Errorf("experiments: bad region size %d", cfg.RegionBytes)
	}
	procs := cfg.Procs
	if procs == nil {
		procs = DefaultProcSweep(cfg.Cells)
	}
	res := LatencyResult{Procs: procs}

	// Sub-cache latency: one processor re-reading one cached word.
	{
		m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, "latency/subcache")
		if err != nil {
			return res, err
		}
		r := m.Alloc("sub", 1024)
		var per sim.Time
		if _, err := m.Run(1, func(p *machine.Proc) {
			p.Read(r.Word(0))
			t0 := p.Now()
			const reps = 1000
			for i := 0; i < reps; i++ {
				p.Read(r.Word(0))
			}
			per = (p.Now() - t0) / reps
		}); err != nil {
			return res, err
		}
		res.SubCacheRead = per.Micros()
	}

	res.LocalRead = make([]float64, len(procs))
	res.LocalWrite = make([]float64, len(procs))
	res.NetRead = make([]float64, len(procs))
	res.NetWrite = make([]float64, len(procs))
	err := forEachObs(cfg.Obs, len(procs), func(j int) error {
		lr, lw, nr, nw, err := latencyPoint(cfg, procs[j])
		if err != nil {
			return err
		}
		res.LocalRead[j], res.LocalWrite[j] = lr, lw
		res.NetRead[j], res.NetWrite[j] = nr, nw
		return nil
	})
	return res, err
}

// latencyPoint measures all four curves at one processor count.
func latencyPoint(cfg LatencyConfig, pn int) (lr, lw, nr, nw float64, err error) {
	m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, cfg.Cells, fmt.Sprintf("latency/p=%d", pn))
	if err != nil {
		return
	}
	size := cfg.RegionBytes
	// The flood array must exceed the 256 KB sub-cache or it cannot evict
	// A (paper footnote 2: B is re-read repeatedly to beat the random
	// replacement).
	floodSize := size
	if floodSize < 512*1024 {
		floodSize = 512 * 1024
	}
	// One extra target region so that the last processor (and the P=1
	// case) reads genuinely remote data rather than its own.
	regionsA := make([]memory.Region, pn+1)
	regionsB := make([]memory.Region, pn+1)
	flood := make([]memory.Region, pn)
	for i := 0; i <= pn; i++ {
		regionsA[i] = m.Alloc(fmt.Sprintf("A.%d", i), size)
		regionsB[i] = m.Alloc(fmt.Sprintf("B.%d", i), size)
	}
	for i := 0; i < pn; i++ {
		flood[i] = m.Alloc(fmt.Sprintf("flood.%d", i), floodSize)
	}
	bar := ksync.Traced(m, ksync.NewTournament(m, pn, true))
	localReads := make([]sim.Time, pn)
	localWrites := make([]sim.Time, pn)
	netReads := make([]sim.Time, pn)
	netWrites := make([]sim.Time, pn)
	accesses := size / memory.SubBlockSize
	netAccesses := size / memory.SubPageSize

	_, err = m.Run(pn, func(p *machine.Proc) {
		id := p.CellID()
		a, b := regionsA[id], flood[id]
		// Fill the local cache with A, then flood the sub-cache with B
		// (repeatedly, to beat the random replacement — paper footnote 2).
		p.ReadRange(a.Base, size/memory.WordSize, memory.WordSize)
		for rep := 0; rep < 3; rep++ {
			p.ReadRange(b.Base, floodSize/memory.SubBlockSize, memory.SubBlockSize)
		}
		// Local-cache reads: one access per sub-block of A.
		t0 := p.Now()
		p.ReadRange(a.Base, accesses, memory.SubBlockSize)
		localReads[id] = (p.Now() - t0) / sim.Time(accesses)
		// Flood again, then local-cache writes.
		for rep := 0; rep < 3; rep++ {
			p.ReadRange(b.Base, floodSize/memory.SubBlockSize, memory.SubBlockSize)
		}
		t0 = p.Now()
		p.WriteRange(a.Base, accesses, memory.SubBlockSize)
		localWrites[id] = (p.Now() - t0) / sim.Time(accesses)

		// Network: everyone reads the neighbour's array simultaneously
		// (distinct data: no sharing effects — paper Section 3.1).
		bar.Wait(p)
		nb := regionsA[id+1]
		t0 = p.Now()
		p.ReadRange(nb.Base, netAccesses, memory.SubPageSize)
		netReads[id] = (p.Now() - t0) / sim.Time(netAccesses)
		bar.Wait(p)
		nbB := regionsB[id+1]
		t0 = p.Now()
		p.WriteRange(nbB.Base, netAccesses, memory.SubPageSize)
		netWrites[id] = (p.Now() - t0) / sim.Time(netAccesses)
	})
	if err != nil {
		return
	}
	avg := func(ts []sim.Time) float64 {
		var s sim.Time
		for _, t := range ts {
			s += t
		}
		return (s / sim.Time(len(ts))).Micros()
	}
	return avg(localReads), avg(localWrites), avg(netReads), avg(netWrites), nil
}

// AllocOverheadResult reports the Section 3.1 allocation measurements.
type AllocOverheadResult struct {
	LocalBase    float64 // us/access, sub-block stride within blocks
	LocalAlloc   float64 // us/access, every access allocating a 2 KB block
	LocalRatio   float64 // paper: ~1.5
	RemoteBase   float64 // us/access, sub-page stride within pages
	RemoteAlloc  float64 // us/access, every access allocating a 16 KB page
	RemoteRatio  float64 // paper: ~1.6
	paperChecked bool
}

// String renders the comparison.
func (r AllocOverheadResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Allocation overheads (Section 3.1)\n")
	fmt.Fprintf(&b, "  local-cache access:  %.3f us/access; with 2KB block allocation: %.3f (x%.2f, paper ~1.5)\n",
		r.LocalBase, r.LocalAlloc, r.LocalRatio)
	fmt.Fprintf(&b, "  remote access:       %.3f us/access; with 16KB page allocation: %.3f (x%.2f, paper ~1.6)\n",
		r.RemoteBase, r.RemoteAlloc, r.RemoteRatio)
	return b.String()
}

// AllocConfig parameterizes the allocation-overhead measurement. The
// machine size is fixed (the effect is per-access, not per-machine).
type AllocConfig struct {
	Machine MachineKind `help:"machine model: ksr1 | ksr2 | symmetry | butterfly"`

	observed
}

// DefaultAllocConfig returns the Section 3.1 setup.
func DefaultAllocConfig() AllocConfig {
	return AllocConfig{Machine: KSR1Kind}
}

// RunAlloc measures the cost of allocation-unit misses by striding so
// that every access claims a fresh 2 KB sub-cache block (local case) or a
// fresh 16 KB local-cache page (remote case).
func RunAlloc(cfg AllocConfig) (AllocOverheadResult, error) {
	var res AllocOverheadResult
	m, err := NewMachineObsIn(cfg.Obs, cfg.Machine, 4, "alloc")
	if err != nil {
		return res, err
	}
	// 64 blocks fit the 128-frame sub-cache, so the base case measures a
	// clean 18-cycle local-cache fill with no allocation.
	const localBlocks = 64
	const remoteAccesses = 256
	local := m.Alloc("alloc.local", localBlocks*memory.BlockSize)
	remoteA := m.Alloc("alloc.remoteA", remoteAccesses*memory.SubPageSize)
	remoteB := m.Alloc("alloc.remoteB", remoteAccesses*memory.PageSize)
	var baseT, allocT, rBaseT, rAllocT sim.Time
	_, err = m.Run(2, func(p *machine.Proc) {
		if p.CellID() == 1 {
			// Owner of the remote regions: cache them, then idle.
			p.ReadRange(remoteA.Base, remoteAccesses, memory.SubPageSize)
			p.ReadRange(remoteB.Base, remoteAccesses, memory.PageSize)
			return
		}
		p.Compute(10_000_000) // wait for the owner to finish caching

		// Base: allocate all 64 blocks, then read different sub-blocks of
		// the already-allocated blocks — pure local-cache fills.
		p.ReadRange(local.Base, localBlocks, memory.BlockSize)
		t0 := p.Now()
		p.ReadRange(local.Base+memory.SubBlockSize, localBlocks, memory.BlockSize)
		baseT = (p.Now() - t0) / sim.Time(localBlocks)

		// Alloc case: flood the sub-cache, then stride by whole blocks so
		// every access re-allocates a 2 KB block.
		flood := m.Alloc("alloc.flood", 512*1024)
		for rep := 0; rep < 3; rep++ {
			p.ReadRange(flood.Base, 512*1024/memory.SubBlockSize, memory.SubBlockSize)
		}
		t0 = p.Now()
		p.ReadRange(local.Base, localBlocks, memory.BlockSize)
		allocT = (p.Now() - t0) / sim.Time(localBlocks)

		// Remote, sub-page stride within pages (allocation amortized).
		t0 = p.Now()
		p.ReadRange(remoteA.Base, remoteAccesses, memory.SubPageSize)
		rBaseT = (p.Now() - t0) / sim.Time(remoteAccesses)

		// Remote, page stride: every access allocates a 16 KB page.
		t0 = p.Now()
		p.ReadRange(remoteB.Base, remoteAccesses, memory.PageSize)
		rAllocT = (p.Now() - t0) / sim.Time(remoteAccesses)
	})
	if err != nil {
		return res, err
	}
	res.LocalBase = baseT.Micros()
	res.LocalAlloc = allocT.Micros()
	res.RemoteBase = rBaseT.Micros()
	res.RemoteAlloc = rAllocT.Micros()
	if baseT > 0 {
		res.LocalRatio = float64(allocT) / float64(baseT)
	}
	if rBaseT > 0 {
		res.RemoteRatio = float64(rAllocT) / float64(rBaseT)
	}
	res.paperChecked = true
	return res, nil
}
