package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"

	"repro/internal/machine"
	"repro/internal/obs"
)

// tally sums the simulated counters one round produced, by name. The
// simulator is deterministic, so a tally repeats exactly from round to
// round; it feeds the per-layer counts and ratios.
type tally map[string]float64

// addCounters folds a machine counter list (machine.Counters, a
// workload report) into t.
func (t tally) addCounters(cs []obs.Counter) {
	for _, c := range cs {
		switch c.Name {
		case "fabric.mean_latency_ns":
			// A per-machine mean; summing it would mean nothing.
		case "fabric.max_inflight":
			t[c.Name] = math.Max(t[c.Name], c.Value)
		default:
			t[c.Name] += c.Value
		}
	}
}

// addMachine adds a machine the benchmark built itself: its counter list
// plus what only its accessors expose (atomic sub-page attempts, cache
// evictions, engine events).
func (t tally) addMachine(m *machine.Machine) {
	t.addCounters(m.Counters())
	if d := m.Directory(); d != nil {
		ds := d.Stats()
		t["coh.gsp_attempts"] += float64(ds.GSPAttempts)
		t["coh.gsp_failures"] += float64(ds.GSPFailures)
	}
	for i := 0; i < m.Cells(); i++ {
		c := m.CellAt(i)
		if sc := c.SubCache(); sc != nil {
			t["cache.evictions"] += float64(sc.Stats().Evictions + c.LocalCache().Stats().Evictions)
		}
	}
	t["sim.events"] += float64(m.Engine().EventsExecuted())
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digestOf hashes the canonical JSON form of a round's simulated
// outputs. Every field is simulated state, never host time, so the
// digest is a pure function of (workload, seed).
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
