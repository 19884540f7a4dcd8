// Package server implements ksrsimd's REST service: a thin HTTP layer
// over the experiment registry, the bounded priority job queue, the
// content-addressed result cache, and the durable job journal.
//
// The flow for one job: decode the spec, strictly merge its config onto
// the experiment's defaults, canonicalize, hash into a cache key. A
// cache hit answers immediately (the simulator is deterministic, so the
// cached bytes ARE the result); a miss journals the submission —
// fsync'd before the HTTP acknowledgement, so an acknowledged job can
// never be lost to a crash — and enqueues it. Each executing job gets
// its own obs.Session, so concurrent jobs never share counters and
// every job can emit the same manifest/trace artifacts the CLI does.
//
// Failure semantics (docs/SERVER.md#durability--failure-semantics):
// transient failures (per-attempt timeouts, injected faults) retry with
// deterministic backoff until the job's attempt budget runs out and it
// is quarantined; experiment errors are permanent (the simulator is
// deterministic — re-running reproduces them). When the queue or its
// byte budget saturates, admission sheds the lowest-priority queued job
// to make room for higher-priority work, else answers 429 with
// Retry-After. On restart the journal is replayed: finished jobs are
// answered from the result cache, pending ones are re-enqueued —
// determinism makes re-running an interrupted job byte-identical, so
// recovery is just re-enqueue.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobq"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/version"
)

// compactEvery is how many journal appends accumulate before the next
// terminal record triggers a snapshot compaction.
const compactEvery = 1024

// errUnavailable marks admission failures the client should retry (the
// journal is closing underneath a racing request); handleSubmit maps it
// to 503 + Retry-After instead of a terminal 400.
var errUnavailable = errors.New("server temporarily unavailable")

// Config sizes a Server.
type Config struct {
	// Workers is the job-level concurrency (how many experiments run at
	// once); each job's sweep additionally fans across cores per the
	// experiments package's parallelism setting.
	Workers int
	// QueueCap bounds how many jobs may wait behind the workers; beyond
	// it, admission sheds lower-priority work or answers 429.
	QueueCap int
	// QueueBytes bounds the total canonical-config bytes of admitted,
	// unfinished jobs — a memory budget behind the job-count bound.
	// 0 disables it.
	QueueBytes int64
	// Cache is the shared result cache (required).
	Cache *resultcache.Cache
	// ArtifactsDir, when non-empty, receives per-job manifest, trace,
	// and telemetry files.
	ArtifactsDir string
	// JournalPath, when non-empty, enables the durable job journal:
	// submissions are fsync'd before acknowledgement and replayed on the
	// next startup.
	JournalPath string
	// DefaultTimeout is the per-attempt wall-clock deadline for jobs
	// that don't set one (0 = none).
	DefaultTimeout time.Duration
	// DefaultMaxAttempts bounds attempts for jobs that don't set their
	// own (values below 1 mean 3).
	DefaultMaxAttempts int
	// BeforeRun, when non-nil, runs at the start of every job attempt;
	// a non-nil return fails the attempt as transient. It exists for
	// fault injection — the chaos harness wedges and trips jobs with it.
	// Implementations that block must watch ctx, which the queue cancels
	// on job cancellation, deadline expiry, drain, and kill.
	BeforeRun func(ctx context.Context, jobID string, attempt int) error
}

func (c Config) defaultMaxAttempts() int {
	if c.DefaultMaxAttempts < 1 {
		return 3
	}
	return c.DefaultMaxAttempts
}

// job is the server-side record of one submission.
type job struct {
	mu          sync.Mutex
	id          string
	experiment  string
	key         string
	state       string
	cached      bool
	recovered   bool
	priority    int
	canonical   []byte
	observe     *api.ObserveOptions
	timeout     time.Duration
	maxAttempts int
	attempt     int // attempts started (journal RecStart count)
	userCancel  bool
	// recoverable is true from the submit journal record until a
	// terminal record lands: these jobs are the journal's live set.
	recoverable bool
	// released guards the one-shot return of this job's bytes to the
	// admission budget.
	released  bool
	sess      *obs.Session
	result    json.RawMessage
	text      string
	errMsg    string
	manifestF string
	traceF    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	// history is the job's lifecycle event log, one entry per state
	// transition, ids from eventSeq — the SSE Last-Event-ID replay set.
	history  []api.Event
	eventSeq int64
}

// status snapshots the job as its API representation.
func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		ID:           j.id,
		Experiment:   j.experiment,
		Key:          j.key,
		State:        j.state,
		Cached:       j.cached,
		Recovered:    j.recovered,
		Priority:     j.priority,
		Config:       j.canonical,
		Result:       j.result,
		Text:         j.text,
		Error:        j.errMsg,
		Attempts:     j.attempt,
		ManifestFile: j.manifestF,
		TraceFile:    j.traceF,
		SubmittedAt:  j.submitted.UTC().Format(time.RFC3339),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339)
		st.WallSeconds = j.finished.Sub(j.started).Seconds()
	}
	if sess := j.sess; sess != nil && j.state == api.StateRunning {
		done, total := sess.Progress()
		st.Progress = &api.Progress{PointsDone: done, PointsTotal: total, Samples: sess.Samples()}
	}
	return st
}

// setState transitions the job, stamping start/finish times and
// appending the transition to the SSE replay history.
func (j *job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	switch state {
	case api.StateRunning:
		j.started = time.Now()
	case api.StateDone, api.StateFailed, api.StateCancelled, api.StateQuarantined:
		if j.started.IsZero() {
			j.started = time.Now()
		}
		j.finished = time.Now()
	}
	j.eventSeq++
	j.history = append(j.history, api.Event{
		Type: "state", JobID: j.id, State: state, Error: j.errMsg, Seq: j.eventSeq,
	})
}

func (j *job) setError(msg string) {
	j.mu.Lock()
	j.errMsg = msg
	j.mu.Unlock()
}

// eventsAfter returns the lifecycle events with Seq > after, for SSE
// replay on (re)connect.
func (j *job) eventsAfter(after int64) []api.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []api.Event
	for _, ev := range j.history {
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	return out
}

// Server is the ksrsimd HTTP service.
type Server struct {
	cfg     Config
	queue   *jobq.Queue
	cache   *resultcache.Cache
	journal *jobq.Journal

	mu          sync.Mutex
	jobs        map[string]*job
	nextID      uint64
	queuedBytes int64

	recovery RecoveryStats

	reg     *metrics.Registry
	latency *metrics.Histogram

	draining atomic.Bool
	started  time.Time
}

// RecoveryStats counts what the startup journal replay found.
type RecoveryStats struct {
	Replayed int // jobs reduced from the journal
	Requeued int // pending jobs re-enqueued (includes done-but-uncached)
	Done     int // finished jobs answered from the result cache
	Terminal int // failed/cancelled/quarantined states resurrected
}

// New builds a Server, replays its journal if configured, and starts
// the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil {
		return nil, fmt.Errorf("server: config needs a result cache")
	}
	s := &Server{
		cfg:     cfg,
		queue:   jobq.New(cfg.Workers, cfg.QueueCap),
		cache:   cfg.Cache,
		jobs:    make(map[string]*job),
		reg:     metrics.NewRegistry(),
		started: time.Now(),
	}
	if cfg.JournalPath != "" {
		jnl, records, err := jobq.OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.journal = jnl
		for _, rj := range jobq.Reduce(records) {
			s.recoverJob(rj)
		}
		s.recovery.Replayed = len(s.jobs)
	}
	s.instrument()
	return s, nil
}

// instrument registers the fleet metrics surface (docs/OBSERVABILITY.md,
// "Fleet metrics"): queue/cache/journal observables sampled at scrape
// time, plus the submit-to-result latency histogram fed by finishing
// jobs. Registration happens once, after recovery, so replay churn
// never races scrapes.
func (s *Server) instrument() {
	s.queue.InstrumentMetrics(s.reg, "ksrsimd_queue")
	s.cache.InstrumentMetrics(s.reg, "ksrsimd_cache")
	if s.journal != nil {
		s.journal.InstrumentMetrics(s.reg, "ksrsimd_journal")
	}
	// Bounds span the fleet's real dynamic range: cache hits answer in
	// microseconds, big sweeps run minutes.
	s.latency = s.reg.Histogram("ksrsimd_job_latency_seconds",
		"Submit-to-result latency (cache hits included).",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300})
	s.reg.GaugeFunc("ksrsimd_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.reg.GaugeFunc("ksrsimd_jobs_tracked", "Job records held in memory.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	s.reg.GaugeFunc("ksrsimd_queued_bytes", "Canonical config bytes admitted and not yet released.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.queuedBytes)
		})
}

// observeLatency records j's submit-to-result latency once it reaches
// StateDone. Recovered jobs are skipped: their submit timestamp was
// reset at replay, so the delta measures restart time, not service
// latency.
func (s *Server) observeLatency(j *job) {
	j.mu.Lock()
	d := j.finished.Sub(j.submitted)
	recovered := j.recovered
	j.mu.Unlock()
	if recovered || d < 0 {
		return
	}
	s.latency.Observe(d.Seconds())
}

// Recovery reports what the startup journal replay recovered.
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// recoverJob resurrects one journaled job after a restart: terminal
// jobs come back as queryable state (done jobs pull their bytes from
// the result cache), pending jobs are re-enqueued past the capacity
// bound — they were acknowledged, so they run.
func (s *Server) recoverJob(rj jobq.ReplayJob) {
	sub := rj.Submit
	if n, err := strconv.ParseUint(strings.TrimPrefix(sub.ID, "job-"), 10, 64); err == nil && n > s.nextID {
		s.nextID = n
	}
	j := &job{
		id:          sub.ID,
		experiment:  sub.Experiment,
		key:         sub.Key,
		recovered:   true,
		priority:    sub.Priority,
		canonical:   []byte(sub.Config),
		timeout:     time.Duration(sub.TimeoutNs),
		maxAttempts: sub.MaxAttempts,
		attempt:     rj.Attempts,
		submitted:   time.Now(),
	}
	s.jobs[sub.ID] = j

	switch rj.Terminal {
	case jobq.RecFail:
		j.setError("failed before daemon restart")
		j.setState(api.StateFailed)
		s.recovery.Terminal++
		return
	case jobq.RecCancel:
		j.setError("cancelled before daemon restart")
		j.setState(api.StateCancelled)
		s.recovery.Terminal++
		return
	case jobq.RecQuarantine:
		j.setError("quarantined before daemon restart")
		j.setState(api.StateQuarantined)
		s.recovery.Terminal++
		return
	case jobq.RecDone:
		if e, ok := s.cache.Get(sub.Key); ok {
			j.mu.Lock()
			j.cached = true
			j.result = e.Result
			j.text = e.Text
			j.mu.Unlock()
			j.setState(api.StateDone)
			s.recovery.Done++
			return
		}
		// Done but evicted/lost from the cache: determinism makes
		// re-running byte-identical, so fall through and re-enqueue.
	}

	runner, ok := experiments.LookupExperiment(sub.Experiment)
	if !ok {
		j.setError(fmt.Sprintf("journal names unknown experiment %q", sub.Experiment))
		j.setState(api.StateFailed)
		s.recovery.Terminal++
		return
	}
	cfg, err := runner.DecodeConfig(sub.Config)
	if err != nil {
		j.setError(fmt.Sprintf("journaled config no longer decodes: %v", err))
		j.setState(api.StateFailed)
		s.recovery.Terminal++
		return
	}
	j.recoverable = true
	j.setState(api.StateQueued)
	if err := s.queue.Restore(sub.ID, sub.Priority, s.jobOptions(j), func(ctx context.Context) error {
		return s.run(ctx, j, runner, cfg)
	}); err != nil {
		j.setError(err.Error())
		j.setState(api.StateFailed)
		s.recovery.Terminal++
		return
	}
	s.queuedBytes += int64(len(j.canonical))
	s.recovery.Requeued++
}

// Handler returns the service's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

// Metrics returns the server's metric registry (tests and embedders).
//
//lint:ignore ksrlint/deadapi read by bench/ksrbench, a separate module that ksrlint does not load
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// journalAppend writes one record, ignoring a closed journal (Kill
// races in-flight jobs' final appends by design — a crash doesn't get
// to write).
func (s *Server) journalAppend(rec jobq.Record) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Append(rec)
}

// journalTerminal ends j's journaled lifecycle and opportunistically
// compacts once enough records have piled up.
func (s *Server) journalTerminal(j *job, recType, errMsg string) {
	j.mu.Lock()
	j.recoverable = false
	attempt := j.attempt
	j.mu.Unlock()
	if s.journal == nil {
		return
	}
	s.journal.Append(jobq.Record{Type: recType, ID: j.id, Attempt: attempt, Error: errMsg})
	if s.journal.Appends() > compactEvery {
		s.compactJournal()
	}
}

// submitRecord renders j's journal submit record (also the unit of
// compaction: one live submit per pending job).
func (j *job) submitRecord() jobq.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobq.Record{
		Type:        jobq.RecSubmit,
		ID:          j.id,
		Experiment:  j.experiment,
		Key:         j.key,
		Priority:    j.priority,
		Config:      json.RawMessage(j.canonical),
		TimeoutNs:   int64(j.timeout),
		MaxAttempts: j.maxAttempts,
		Attempt:     j.attempt,
	}
}

// compactJournal snapshots the journal down to the still-recoverable
// jobs' submit records, in id order for a deterministic log.
func (s *Server) compactJournal() {
	if s.journal == nil {
		return
	}
	s.mu.Lock()
	var pending []*job
	for _, j := range s.jobs {
		j.mu.Lock()
		live := j.recoverable
		j.mu.Unlock()
		if live {
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(pending, func(i, k int) bool { return pending[i].id < pending[k].id })
	live := make([]jobq.Record, 0, len(pending))
	for _, j := range pending {
		live = append(live, j.submitRecord())
	}
	s.journal.Compact(live)
}

// releaseBytes returns j's canonical-config bytes to the admission
// budget, exactly once over the job's lifetime.
func (s *Server) releaseBytes(j *job) {
	j.mu.Lock()
	released := j.released
	j.released = true
	n := int64(len(j.canonical))
	j.mu.Unlock()
	if released {
		return
	}
	s.mu.Lock()
	s.queuedBytes -= n
	s.mu.Unlock()
}

// Drain refuses new work, drops queued jobs (journaling them as still
// pending, so a restart resumes them), and gives running jobs up to
// timeout before cancelling them too. It reports whether shutdown was
// clean.
func (s *Server) Drain(timeout time.Duration) bool {
	s.draining.Store(true)
	dropped, clean := s.queue.Drain(timeout)
	s.mu.Lock()
	for _, id := range dropped {
		if j, ok := s.jobs[id]; ok {
			j.setError("daemon draining; job journaled for the next start")
			j.setState(api.StateCancelled)
		}
	}
	s.mu.Unlock()
	// Every worker has exited: the recoverable set is final. Snapshot it
	// as the journal's whole content — the next start re-enqueues it.
	if s.journal != nil {
		s.compactJournal()
		s.journal.Close()
	}
	return clean
}

// Kill simulates a crash for the chaos harness: abandon queued work,
// cancel running work, write nothing. The journal keeps only what
// Append already fsync'd — exactly what SIGKILL would leave behind.
//
//lint:ignore ksrlint/deadapi the chaos harness's crash primitive: it kills the server in-process without a drain
func (s *Server) Kill() {
	s.draining.Store(true)
	s.queue.Kill()
	if s.journal != nil {
		s.journal.Close()
	}
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeSubmit accepts either a batch {"jobs": [...]} or a bare JobSpec.
//
//ksr:untrusted-input
func decodeSubmit(body []byte) ([]api.JobSpec, error) {
	try := func(v any) error {
		dec := json.NewDecoder(bytesReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return err
		}
		if dec.More() {
			return errors.New("trailing data after JSON body")
		}
		return nil
	}
	var batch api.SubmitRequest
	if err := try(&batch); err == nil && batch.Jobs != nil {
		return batch.Jobs, nil
	}
	var single api.JobSpec
	if err := try(&single); err != nil {
		return nil, fmt.Errorf("body is neither a job spec nor a {\"jobs\": [...]} batch: %w", err)
	}
	return []api.JobSpec{single}, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := readBody(r, 1<<20)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	specs, err := decodeSubmit(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(specs) == 0 {
		writeErr(w, http.StatusBadRequest, "empty job batch")
		return
	}

	resp := api.SubmitResponse{Jobs: make([]api.JobHandle, 0, len(specs))}
	status := http.StatusAccepted
	for _, spec := range specs {
		h, err := s.admit(spec)
		if err != nil {
			// A journal failure is the server's problem (it is dying or
			// was killed mid-request): tell the client to come back. Any
			// other error poisons the whole batch: the client's request
			// is malformed, not the server overloaded.
			if errors.Is(err, errUnavailable) {
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusServiceUnavailable, "%v", err)
				return
			}
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		if h.State == api.StateRejected {
			status = http.StatusTooManyRequests
		}
		resp.Jobs = append(resp.Jobs, h)
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
}

// jobOptions renders j's execution policy for the queue: its deadline
// and attempt budget, jitter seeded from the job's content address
// (deterministic: same job, same retry schedule), and callbacks that
// journal retries and quarantine.
func (s *Server) jobOptions(j *job) jobq.Options {
	return jobq.Options{
		Timeout:      j.timeout,
		MaxAttempts:  j.maxAttempts,
		Seed:         seedFromKey(j.key),
		StartAttempt: j.attempt,
		OnRetry: func(next int, delay time.Duration, err error) {
			j.setError(fmt.Sprintf("attempt %d: %v (retrying in %v)", next-1, err, delay.Round(time.Millisecond)))
			j.setState(api.StateQueued)
			s.journalAppend(jobq.Record{Type: jobq.RecRetry, ID: j.id, Attempt: next - 1, Error: err.Error()})
		},
		OnQuarantine: func(attempts int, err error) {
			j.setError(fmt.Sprintf("quarantined after %d attempts: %v", attempts, err))
			j.setState(api.StateQuarantined)
			s.journalTerminal(j, jobq.RecQuarantine, err.Error())
			s.releaseBytes(j)
		},
	}
}

// seedFromKey folds a job's hex cache key into the retry-jitter seed.
func seedFromKey(key string) uint64 {
	if len(key) >= 16 {
		if v, err := strconv.ParseUint(key[:16], 16, 64); err == nil {
			return v
		}
	}
	return 0
}

// admit validates one spec and either answers it from cache or
// journals and enqueues it. Validation errors return err; shedding
// failure returns a handle in StateRejected.
func (s *Server) admit(spec api.JobSpec) (api.JobHandle, error) {
	runner, ok := experiments.LookupExperiment(spec.Experiment)
	if !ok {
		return api.JobHandle{}, fmt.Errorf("unknown experiment %q (GET /v1/experiments lists them)", spec.Experiment)
	}
	if spec.TimeoutSeconds < 0 {
		return api.JobHandle{}, fmt.Errorf("timeout_seconds must be >= 0")
	}
	if spec.MaxAttempts < 0 {
		return api.JobHandle{}, fmt.Errorf("max_attempts must be >= 0")
	}
	cfg, err := runner.DecodeConfig(spec.Config)
	if err != nil {
		return api.JobHandle{}, err
	}
	canonical, err := runner.CanonicalConfig(cfg)
	if err != nil {
		return api.JobHandle{}, err
	}
	key := resultcache.Key(spec.Experiment, canonical)

	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutSeconds > 0 {
		timeout = time.Duration(spec.TimeoutSeconds * float64(time.Second))
	}
	maxAttempts := s.cfg.defaultMaxAttempts()
	if spec.MaxAttempts > 0 {
		maxAttempts = spec.MaxAttempts
	}

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%08d", s.nextID)
	j := &job{
		id:          id,
		experiment:  spec.Experiment,
		key:         key,
		priority:    spec.Priority,
		canonical:   canonical,
		observe:     spec.Observe,
		timeout:     timeout,
		maxAttempts: maxAttempts,
		submitted:   time.Now(),
	}
	s.jobs[id] = j
	s.mu.Unlock()

	// Cache hit: the job is already done — deterministic inputs mean the
	// cached bytes are exactly what a fresh run would produce. Journal
	// submit+done so the id survives a crash as a queryable, finished job.
	if !spec.Recompute {
		if e, ok := s.cache.Get(key); ok {
			j.mu.Lock()
			j.cached = true
			j.result = e.Result
			j.text = e.Text
			j.mu.Unlock()
			j.setState(api.StateDone)
			s.observeLatency(j)
			if err := s.journalAppend(j.submitRecord()); err != nil {
				return api.JobHandle{}, fmt.Errorf("%w: journal: %v", errUnavailable, err)
			}
			s.journalAppend(jobq.Record{Type: jobq.RecDone, ID: id, Key: key})
			return api.JobHandle{ID: id, Key: key, State: api.StateDone, Cached: true}, nil
		}
	}

	j.setState(api.StateQueued)

	// Journal before enqueue: a submit record must be durable before the
	// client can possibly see an acknowledgement, and must precede any
	// start/done record the worker writes.
	j.mu.Lock()
	j.recoverable = true
	j.mu.Unlock()
	if err := s.journalAppend(j.submitRecord()); err != nil {
		j.mu.Lock()
		j.recoverable = false
		j.mu.Unlock()
		return api.JobHandle{}, fmt.Errorf("%w: journal: %v", errUnavailable, err)
	}

	h, err := s.enqueue(j, runner, cfg)
	if err != nil {
		return api.JobHandle{}, err
	}
	return h, nil
}

// enqueue runs admission control for an already-journaled job: enforce
// the byte budget and queue capacity, shedding strictly-lower-priority
// queued work to make room before giving up with a rejection.
func (s *Server) enqueue(j *job, runner experiments.Runner, cfg any) (api.JobHandle, error) {
	reject := func(reason string) (api.JobHandle, error) {
		j.setError(reason)
		j.setState(api.StateRejected)
		// Terminalize the journaled submit so a crash doesn't resurrect
		// a job the client was told is rejected.
		s.journalTerminal(j, jobq.RecCancel, reason)
		return api.JobHandle{ID: j.id, Key: j.key, State: api.StateRejected, Error: reason}, nil
	}

	need := int64(len(j.canonical))
	for s.cfg.QueueBytes > 0 {
		s.mu.Lock()
		over := s.queuedBytes+need > s.cfg.QueueBytes
		s.mu.Unlock()
		if !over {
			break
		}
		if !s.shedOne(j.priority) {
			return reject(fmt.Sprintf("queue byte budget full (%d in flight); shed nothing below priority %d", s.cfg.QueueBytes, j.priority))
		}
	}

	run := func(ctx context.Context) error { return s.run(ctx, j, runner, cfg) }
	for {
		err := s.queue.Submit(j.id, j.priority, s.jobOptions(j), run)
		switch {
		case err == nil:
			s.mu.Lock()
			s.queuedBytes += need
			s.mu.Unlock()
			return api.JobHandle{ID: j.id, Key: j.key, State: api.StateQueued}, nil
		case errors.Is(err, jobq.ErrFull):
			if s.shedOne(j.priority) {
				continue
			}
			return reject(err.Error())
		case errors.Is(err, jobq.ErrDraining):
			return reject(err.Error())
		default:
			return api.JobHandle{}, err
		}
	}
}

// shedOne displaces the lowest-priority queued job strictly below
// limit, finishing it as cancelled ("shed") and journaling that so it
// is not resurrected. Reports whether anything was shed.
func (s *Server) shedOne(limit int) bool {
	id, ok := s.queue.ShedBelow(limit)
	if !ok {
		return false
	}
	s.mu.Lock()
	victim := s.jobs[id]
	s.mu.Unlock()
	if victim != nil {
		victim.setError(fmt.Sprintf("shed: displaced by priority-%d work while queued", limit))
		victim.setState(api.StateCancelled)
		s.journalTerminal(victim, jobq.RecCancel, "shed")
		s.releaseBytes(victim)
	}
	return true
}

// run executes one attempt of an admitted job on a queue worker. Its
// return drives the queue's retry policy: nil completes, Permanent
// fails, context.Canceled cancels, anything else backs off and retries.
func (s *Server) run(ctx context.Context, j *job, runner experiments.Runner, cfg any) error {
	j.mu.Lock()
	j.attempt++
	attempt := j.attempt
	j.mu.Unlock()
	s.journalAppend(jobq.Record{Type: jobq.RecStart, ID: j.id, Attempt: attempt})

	perm := func(err error) error {
		j.setError(err.Error())
		j.setState(api.StateFailed)
		s.journalTerminal(j, jobq.RecFail, err.Error())
		s.releaseBytes(j)
		return jobq.Permanent(err)
	}

	if hook := s.cfg.BeforeRun; hook != nil {
		if err := hook(ctx, j.id, attempt); err != nil {
			j.setError(err.Error())
			return err // injected fault: transient, queue backs off and retries
		}
	}

	var opts obs.Options
	if o := j.observe; o != nil {
		if o.Trace {
			cats, err := obs.ParseCategories(o.TraceCats)
			if err != nil {
				return perm(err)
			}
			opts.Cats = cats
		}
		opts.SampleEvery = sim.FromNs(o.SampleNs)
	}
	sess := obs.NewSession(opts)
	j.mu.Lock()
	j.sess = sess
	j.mu.Unlock()
	j.setState(api.StateRunning)
	// Per-job cancellation: the queue cancels ctx (user cancel, drain
	// grace expiry, or deadline), the session stops the sweep at its
	// next point boundary.
	stop := context.AfterFunc(ctx, sess.Cancel)
	defer stop()

	res, err := runner.Run(sess, cfg)
	if errors.Is(err, context.Canceled) || (err != nil && sess.Cancelled()) {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// Per-attempt deadline: transient — the queue backs off and
			// retries until the attempt budget quarantines the job.
			err := fmt.Errorf("attempt %d exceeded its %v deadline", attempt, j.timeout)
			j.setError(err.Error())
			return err
		}
		j.mu.Lock()
		user := j.userCancel
		j.mu.Unlock()
		j.setError("cancelled")
		j.setState(api.StateCancelled)
		if user {
			// Only explicit DELETE /v1/jobs/{id} terminalizes the journal:
			// a drain- or crash-cancelled job must stay recoverable.
			s.journalTerminal(j, jobq.RecCancel, "cancelled")
		}
		s.releaseBytes(j)
		return context.Canceled
	}
	if err != nil {
		// The simulator is deterministic: a real experiment error would
		// reproduce on every retry, so don't burn attempts on it.
		return perm(err)
	}

	resultJSON, err := json.Marshal(res)
	if err != nil {
		return perm(fmt.Errorf("marshal result: %w", err))
	}
	text := fmt.Sprint(res)

	j.mu.Lock()
	j.result = resultJSON
	j.text = text
	j.mu.Unlock()

	manifest := s.writeArtifacts(j, sess, resultJSON)
	s.cache.Put(&resultcache.Entry{
		Key:        j.key,
		Experiment: j.experiment,
		Config:     j.canonical,
		Result:     resultJSON,
		Text:       text,
		Manifest:   manifest,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
	})
	j.setState(api.StateDone)
	s.observeLatency(j)
	// Result first, then the done record: a crash between the two
	// re-enqueues a job whose result is already cached — a cheap hit.
	s.journalTerminal(j, jobq.RecDone, "")
	s.releaseBytes(j)
	return nil
}

// writeArtifacts emits the same manifest/trace/telemetry artifacts the
// CLI writes, named by job id, and returns the manifest bytes (nil when
// artifacts are disabled or invalid). Artifact failures never fail the
// job — the result is already computed.
func (s *Server) writeArtifacts(j *job, sess *obs.Session, resultJSON []byte) []byte {
	if s.cfg.ArtifactsDir == "" {
		return nil
	}
	var traceFile string
	if o := j.observe; o != nil && o.Trace {
		b := sess.TraceJSON()
		if obs.ValidateTrace(b) == nil {
			traceFile = filepath.Join(s.cfg.ArtifactsDir, j.id+".trace.json")
			if writeFile(traceFile, b) != nil {
				traceFile = ""
			}
		}
	}
	if o := j.observe; o != nil && o.SampleNs > 0 {
		writeFile(filepath.Join(s.cfg.ArtifactsDir, j.id+".telemetry.csv"), sess.TelemetryCSV())
	}
	j.mu.Lock()
	started := j.started
	j.traceF = traceFile
	j.mu.Unlock()

	m := obs.Manifest{
		Schema:      obs.ManifestSchema,
		Command:     "ksrsimd " + j.experiment,
		Args:        []string{string(j.canonical)},
		GoVersion:   runtime.Version(),
		GitRevision: version.Revision(),
		StartedAt:   started.UTC().Format(time.RFC3339),
		WallSeconds: time.Since(started).Seconds(),
		Parallelism: experiments.Parallelism(),
		TraceFile:   traceFile,
		Machines:    sess.MachineRecords(),
		Results:     []obs.NamedResult{{Name: "0/" + j.experiment, Data: resultJSON}},
	}
	if o := j.observe; o != nil {
		if o.Trace {
			m.TraceCats = o.TraceCats
		}
		m.SampleNs = o.SampleNs
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil
	}
	b = append(b, '\n')
	if _, err := obs.ValidateManifest(b); err != nil {
		return nil
	}
	path := filepath.Join(s.cfg.ArtifactsDir, j.id+".manifest.json")
	if writeFile(path, b) == nil {
		j.mu.Lock()
		j.manifestF = path
		j.mu.Unlock()
	}
	return b
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	// Mark the intent first: if the job is running, its worker observes
	// the context cancellation and journals the cancel on our behalf.
	j.mu.Lock()
	j.userCancel = true
	j.mu.Unlock()
	found, removed := s.queue.Cancel(j.id)
	if removed {
		// Still queued (or waiting out a retry): it will never run, so
		// finish and journal it here.
		j.setError("cancelled")
		j.setState(api.StateCancelled)
		s.journalTerminal(j, jobq.RecCancel, "cancelled")
		s.releaseBytes(j)
	}
	if !found && !isTerminal(j.status().State) {
		// Not in the queue and not finished: nothing to cancel (raced a
		// worker pickup); report current state.
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func isTerminal(state string) bool {
	switch state {
	case api.StateDone, api.StateFailed, api.StateCancelled, api.StateRejected, api.StateQuarantined:
		return true
	}
	return false
}

// handleEvents streams a job's lifecycle as SSE. Lifecycle ("state")
// events carry monotonic SSE ids from the job's replay history, so a
// client reconnecting with Last-Event-ID receives every transition it
// missed; "progress" events are ephemeral and id-less. The stream ends
// with an "end" event once the job is terminal.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var last int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "malformed Last-Event-ID %q", v)
			return
		}
		last = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev api.Event) {
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if ev.Seq > 0 {
			fmt.Fprintf(w, "id: %d\n", ev.Seq)
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
		fl.Flush()
	}
	// emit replays history the client hasn't seen and closes with "end"
	// when the job is terminal.
	emit := func() (terminal bool) {
		for _, ev := range j.eventsAfter(last) {
			last = ev.Seq
			send(ev)
		}
		st := j.status()
		if isTerminal(st.State) {
			send(api.Event{Type: "end", JobID: j.id, State: st.State, Error: st.Error})
			return true
		}
		return false
	}

	if emit() {
		return
	}
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
		if emit() {
			return
		}
		if st := j.status(); st.State == api.StateRunning {
			send(api.Event{Type: "progress", JobID: j.id, State: st.State, Progress: st.Progress})
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Status:        "ok",
		Version:       version.Revision(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "5")
	}
	writeJSON(w, code, h)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	qs := s.queue.Stats()
	cs := s.cache.Stats()
	byState := make(map[string]int)
	s.mu.Lock()
	queuedBytes := s.queuedBytes
	for _, j := range s.jobs {
		byState[j.status().State]++
	}
	s.mu.Unlock()
	resp := api.StatsResponse{
		Queue: api.QueueStats{
			Workers: qs.Workers, Capacity: qs.Capacity, Queued: qs.Queued,
			Running: qs.Running, RetryWait: qs.RetryWait, Submitted: qs.Submitted,
			Completed: qs.Completed, Rejected: qs.Rejected, Cancelled: qs.Cancelled,
			Failed: qs.Failed, Retried: qs.Retried, Quarantined: qs.Quarantined,
			Shed: qs.Shed, QueuedBytes: queuedBytes, MaxBytes: s.cfg.QueueBytes,
		},
		Cache: api.CacheStats{
			Entries: cs.Entries, Bytes: cs.Bytes, MaxBytes: cs.MaxBytes,
			Hits: cs.Hits, Misses: cs.Misses, Stores: cs.Stores,
			Evictions: cs.Evictions, Persisted: cs.Persisted,
		},
		Jobs:        byState,
		Parallelism: experiments.Parallelism(),
		Version:     version.Revision(),
	}
	if s.journal != nil {
		resp.Journal = &api.JournalStats{
			Path:             s.cfg.JournalPath,
			Appends:          s.journal.Appends(),
			Compactions:      s.journal.Compactions(),
			RecoveredPending: s.recovery.Requeued,
			RecoveredDone:    s.recovery.Done,
			RecoveredOther:   s.recovery.Terminal,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleExperiments serves the experiment catalog in the registry's
// stable sorted-by-name order — the same list `ksrsim experiments`
// prints locally.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	catalog := experiments.ExperimentInfos()
	infos := make([]api.ExperimentInfo, 0, len(catalog))
	for _, e := range catalog {
		infos = append(infos, api.ExperimentInfo{Name: e.Name, Describe: e.Describe})
	}
	writeJSON(w, http.StatusOK, infos)
}
