package main

import (
	"encoding/binary"
	"time"
)

// hostProbe times a fixed piece of host work before and after each
// set-up, simulator round and stretch of the service's open loop, so
// that their times can be scaled to the reference host's speed.
//
// The 2-core reference host changes speed by itself, with no steal time
// recorded: over thirty runs this probe took from 12 to 38 ms, and over
// ten 12-second runs per workload the median round time spread 23-32%
// between quartiles. A pure arithmetic loop barely moved, so the
// slowdowns come from the memory system the host shares, which the
// simulator leans on as hard as this probe does. Of the probes tried
// (dependent pointer chases over 256 KB to 64 MB, arithmetic, Go map
// lookups, and random reads over 8 and 32 MB), independent random reads
// over 8 MB tracked round times best: a round's time divided by the mean
// of the probes on either side of it spread 3-13% over ten-run sets.
// Smoothing the probe over neighbouring rounds did no better.
//
// The probe is the benchmark's own code and its table lives outside the
// Go heap where the OS allows it, so the collector neither scans it nor
// counts it toward the program's heap goal. A change to the program
// under test moves a scaled time as much as the raw one.
type hostProbe struct {
	table []byte // probeWords little-endian words
	free  func()
	reads int
	// ref is the probe's time on the reference host, in seconds, for
	// this many reads.
	ref float64
	// sink keeps the reads' sum, so the compiler cannot drop them.
	sink uint64
}

const (
	probeShift = 44 // a word index is the top 64-probeShift bits of the generator
	probeWords = 1 << (64 - probeShift)
	probeBytes = probeWords * 8
	probeReads = 2_000_000
	// probeRefSeconds is the median time of probeReads reads on the
	// reference host, over 624 probes in thirty runs. It sets the unit of
	// a scaled time, not its spread.
	probeRefSeconds = 0.0183
)

// newHostProbe allocates and fills the probe's table. tiny shrinks the
// probe with the workloads, keeping its scale.
func newHostProbe(tiny bool) (*hostProbe, error) {
	table, free, err := allocProbeTable(probeBytes)
	if err != nil {
		return nil, err
	}
	p := &hostProbe{table: table, free: free, reads: probeReads, ref: probeRefSeconds}
	if tiny {
		p.reads /= 100
		p.ref /= 100
	}
	for i := 0; i < probeWords; i++ {
		binary.LittleEndian.PutUint64(table[i*8:], uint64(i)*2654435761)
	}
	return p, nil
}

// close releases the table.
func (p *hostProbe) close() { p.free() }

// seconds runs the probe once and returns how long it took: reads from
// addresses a fixed generator spreads over the whole table, none
// depending on another.
func (p *hostProbe) seconds() float64 {
	start := time.Now()
	x := uint64(1)
	var s uint64
	for i := 0; i < p.reads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s += binary.LittleEndian.Uint64(p.table[(x>>probeShift)*8:])
	}
	p.sink += s
	return time.Since(start).Seconds()
}

// scale converts el, measured between two probes that took before and
// after seconds, to the reference host's speed.
func (p *hostProbe) scale(el, before, after float64) float64 {
	return el * 2 * p.ref / (before + after)
}
