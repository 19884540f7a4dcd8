// Package experiments reproduces every measurement in the paper: the
// latency study of Section 3.1 (Figure 2 and the allocation-overhead
// observations), the lock and barrier studies of Section 3.2 (Figures 3,
// 4, 5 and the Symmetry/Butterfly comparison of 3.2.3), and the NAS
// kernel/application studies of Section 3.3 (Tables 1-4, Figure 8).
//
// Each experiment is a pure function from a config to a typed result whose
// String method prints the same rows or series the paper reports. The
// cmd/ksrsim CLI and the repository-level benchmarks are thin wrappers
// around these functions.
package experiments

import (
	"fmt"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/prof"
)

// MachineKind names a machine model for experiment configs.
type MachineKind string

// The machine models experiments can target.
const (
	KSR1Kind      MachineKind = "ksr1"
	KSR2Kind      MachineKind = "ksr2"
	SymmetryKind  MachineKind = "symmetry"
	ButterflyKind MachineKind = "butterfly"
)

// ConfigFor returns the named machine model's configuration at the given
// size, without building it — callers can adjust seeds, fault injection,
// or checked mode before machine.New.
func ConfigFor(kind MachineKind, cells int) (machine.Config, error) {
	switch kind {
	case KSR1Kind:
		return machine.KSR1(cells), nil
	case KSR2Kind:
		return machine.KSR2(cells), nil
	case SymmetryKind:
		return machine.Symmetry(cells), nil
	case ButterflyKind:
		return machine.Butterfly(cells), nil
	default:
		return machine.Config{}, fmt.Errorf("experiments: unknown machine kind %q (want ksr1, ksr2, symmetry, or butterfly)", kind)
	}
}

// NewMachine builds a machine of the given kind with cells cells. The
// configuration is validated first, so CLI-supplied sizes produce
// friendly errors instead of constructor panics.
func NewMachine(kind MachineKind, cells int) (*machine.Machine, error) {
	cfg, err := ConfigFor(kind, cells)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return machine.New(cfg), nil
}

// obsSession is the observability session sweep machines attach to. Nil
// (the default) means unobserved: NewMachineObsIn(nil, ...) then behaves
// exactly like NewMachine.
var obsSession atomic.Pointer[obs.Session]

// SetSession installs the observability session that every subsequent
// labeled machine (NewMachineObsIn / newMachineObs) records into. Pass nil
// to detach. The CLI sets this once before running a command; sweeps may
// then run points on any number of workers — each point gets its own
// recorder keyed by a deterministic label, so merged trace output does
// not depend on scheduling.
func SetSession(s *obs.Session) { obsSession.Store(s) }

// ObsSession returns the current observability session, or nil.
func ObsSession() *obs.Session { return obsSession.Load() }

// profSession is the simulated-time profiling session sweep machines
// attach to. Nil (the default) means unprofiled.
var profSession atomic.Pointer[prof.Session]

// SetProfSession installs the profiling session every subsequent labeled
// machine records phase attributions into (one recorder per label, so
// merged profiles do not depend on worker scheduling). Pass nil to
// detach. The CLI sets this once, before running a command.
func SetProfSession(s *prof.Session) { profSession.Store(s) }

// ProfSession returns the current profiling session, or nil.
func ProfSession() *prof.Session { return profSession.Load() }

// sessionOr resolves the session an experiment records into: the
// config-carried session when one was set (the ksrsimd daemon gives every
// job its own), else the process-global one (the CLI path). Both may be
// nil, which means unobserved.
func sessionOr(s *obs.Session) *obs.Session {
	if s != nil {
		return s
	}
	return ObsSession()
}

// NewMachineObsIn is NewMachine plus observability: when a session is
// installed, the machine records under the given label (one recorder per
// label; labels must be unique per machine within a run). s is the
// session to record into; nil falls back to the process-global one, and
// without either it is identical to NewMachine. Long-running servers
// pass their own session to keep concurrent jobs' recorders apart.
func NewMachineObsIn(s *obs.Session, kind MachineKind, cells int, label string) (*machine.Machine, error) {
	cfg, err := ConfigFor(kind, cells)
	if err != nil {
		return nil, err
	}
	return newMachineObs(s, cfg, label)
}

// newMachineObs validates cfg, attaches the recorder for label from the
// resolved session, and builds the machine. Config adjustments (seeds,
// faults, timer interrupts) must be applied by the caller before this
// point.
func newMachineObs(s *obs.Session, cfg machine.Config, label string) (*machine.Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Obs = sessionOr(s).Recorder(label)
	cfg.Prof = ProfSession().Recorder(label)
	return machine.New(cfg), nil
}

// DefaultProcSweep returns the processor counts used for a machine of the
// given size, mirroring the x-axes of the paper's figures.
func DefaultProcSweep(cells int) []int {
	candidates := []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 30, 32, 40, 48, 56, 64}
	var out []int
	for _, p := range candidates {
		if p <= cells {
			out = append(out, p)
		}
	}
	return out
}

// checkProcs rejects processor counts below one, which would size
// per-processor state negatively, or divide by zero, inside a sweep
// worker before the machine's own check runs.
func checkProcs(procs []int) error {
	for _, p := range procs {
		if p < 1 {
			return fmt.Errorf("experiments: processor counts must be at least 1 (got %d)", p)
		}
	}
	return nil
}
