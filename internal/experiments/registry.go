package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Runner is one registered experiment: a name, a default-config
// constructor, and a run function. It is the unit the ksrsimd job service
// schedules — a job spec names an experiment and supplies (part of) its
// config, and the service decodes, canonicalizes, and runs it through
// this table.
type Runner struct {
	// Name is the experiment's CLI/API name ("latency", "cg", ...).
	Name string
	// Describe is a one-line summary shown by GET /v1/experiments.
	Describe string
	// New returns a pointer to a freshly defaulted config for this
	// experiment. DecodeConfig overlays the submitted JSON onto it.
	New func() any
	// Run executes the experiment with cfg (the same pointer type New
	// returns), recording into sess when non-nil. The result is a typed
	// value whose String method renders the paper's table or figure.
	Run func(sess *obs.Session, cfg any) (any, error)
}

// observed is embedded in every experiment config. Obs, when set, is the
// session a run records into instead of the process-global one; it is
// excluded from JSON so job specs hash only the physical configuration.
type observed struct {
	Obs *obs.Session `json:"-"`
}

func (o *observed) observe(s *obs.Session) { o.Obs = s }

// config is what entry needs of a config type C: *C records into a
// session, which every config gets by embedding observed.
type config[C any] interface {
	*C
	observe(*obs.Session)
}

// entry builds the runner for one experiment from its default-config
// constructor and its config-to-result function.
func entry[C, R any, P config[C]](name, describe string, defaults func() C, run func(C) (R, error)) Runner {
	return Runner{
		Name: name, Describe: describe,
		New: func() any { c := defaults(); return &c },
		Run: func(s *obs.Session, cfg any) (any, error) {
			c := *cfg.(*C)
			P(&c).observe(s)
			return run(c)
		},
	}
}

// workloadEntry builds the runner for one built-in workload preset; the
// preset's full spec is the default config, so submitted JSON can
// override any knob and still canonicalize completely.
func workloadEntry(preset, describe string) Runner {
	defaults := func() WorkloadConfig { return DefaultWorkloadConfig(preset) }
	return entry("wl-"+preset, describe, defaults, RunWorkload)
}

// registry holds every config-driven experiment. The npb/bench/all CLI
// commands stay CLI-only: they are presentation wrappers, not single
// config→result functions, so they have no deterministic cacheable form.
var registry = map[string]Runner{}

func init() {
	for _, r := range []Runner{
		entry("latency", "Figure 2: read/write latencies per memory-hierarchy level", DefaultLatencyConfig, RunLatency),
		entry("alloc", "Section 3.1: block/page allocation overheads", DefaultAllocConfig, RunAlloc),
		entry("locks", "Figure 3: hardware exclusive vs software read-write lock", DefaultLocksConfig, RunLocks),
		entry("barriers", "Figures 4/5: barrier algorithms vs processor count", DefaultBarriersConfig, RunBarriers),
		entry("compare", "Section 3.2.3: barriers on Symmetry (bus) and Butterfly (MIN)", DefaultCompareConfig, RunComparison),
		entry("ep", "Section 3.3: Embarrassingly Parallel scalability", DefaultEPExperiment, RunEPExperiment),
		entry("cg", "Table 1 + Figure 8: Conjugate Gradient", DefaultCGExperiment, RunCGExperiment),
		entry("cgpoststore", "Section 3.3.1: CG speedup from poststore, per processor count", DefaultCGExperiment, RunCGPoststoreAblation),
		entry("is", "Table 2 + Figure 8: Integer Sort", DefaultISExperiment, RunISExperiment),
		entry("sp", "Table 3: Scalar Pentadiagonal", DefaultSPExperiment, RunSPExperiment),
		entry("spopts", "Table 4: SP optimization ladder (pad/prefetch/poststore)", DefaultSPOptsConfig, RunSPOpts),
		entry("bt", "extension: Block Tridiagonal", DefaultBTExperiment, RunBTExperiment),
		entry("bigep", "extension: EP on the partitioned two-level ring, to 1088 cells", DefaultBigEPExperiment, RunBigEPExperiment),
		entry("biglatency", "extension: cross-ring fetch latency on the two-level ring", DefaultBigLatencyExperiment, RunBigLatency),
		entry("qlocks", "extension: Anderson/MCS queue locks vs the hardware lock", DefaultQueueLocksConfig, RunQueueLocks),
		entry("saturation", "extension: offered-load sweep of the ring's slot capacity", DefaultSaturationConfig, RunSaturation),
		entry("capacity", "extension: the superunitary-speedup (cache capacity) effect", DefaultCapacityConfig, RunCapacityEffect),
		entry("faults", "extension: degradation sweep under injected faults", DefaultDegradationConfig, RunDegradation),
		workloadEntry("producer-consumer", "workload engine: producer-consumer pipeline (segmented migratory sharing)"),
		workloadEntry("stencil", "workload engine: 1-D stencil with halo exchange and per-iteration barrier"),
		workloadEntry("false-sharing", "workload engine: write-heavy false-sharing stress (packed per-proc words)"),
		workloadEntry("hot-lock", "workload engine: hot-lock contention with think time"),
		workloadEntry("multi-tenant", "workload engine: lock-bound service vs bursty scan on pinned cell ranges"),
	} {
		registry[r.Name] = r
	}
}

// LookupExperiment returns the registered runner for name.
func LookupExperiment(name string) (Runner, bool) {
	r, ok := registry[name]
	return r, ok
}

// Experiments returns every registered experiment name, sorted.
func Experiments() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Info is one row of the experiment catalog: the name plus its one-line
// description. `ksrsim experiments` and GET /v1/experiments both emit
// this list in sorted-by-name order, so the catalog presentation is
// stable across CLI and API.
type Info struct {
	Name     string `json:"name"`
	Describe string `json:"describe"`
}

// ExperimentInfos returns the catalog of every registered experiment,
// sorted by name.
func ExperimentInfos() []Info {
	infos := make([]Info, 0, len(registry))
	for _, name := range Experiments() {
		infos = append(infos, Info{Name: name, Describe: registry[name].Describe})
	}
	return infos
}

// DecodeConfig strictly decodes raw onto a fresh default config for the
// runner: unknown fields are rejected (a typo'd field would otherwise
// silently run the default and poison the result cache under the wrong
// key). A nil/empty raw yields the defaults. The returned value is the
// pointer Run expects.
func (r Runner) DecodeConfig(raw []byte) (any, error) {
	cfg := r.New()
	if len(bytes.TrimSpace(raw)) == 0 {
		return cfg, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("experiments: %s config: %w", r.Name, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("experiments: %s config: trailing data", r.Name)
	}
	return cfg, nil
}

// CanonicalConfig marshals a decoded config back to its canonical JSON
// form: defaults filled in, fields in declaration order, observability
// excluded. Identical experiment inputs therefore produce identical
// bytes — the property the ksrsimd result cache keys on.
func (r Runner) CanonicalConfig(cfg any) ([]byte, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s config canonicalization: %w", r.Name, err)
	}
	return b, nil
}
