package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobq"
	"repro/internal/metrics"
	"repro/internal/resultcache"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/sim"
)

// The service workload runs ksrsimd in-process (server.New with one
// worker, an on-disk result cache and an fsync'd journal in a temporary
// directory) on a loopback listener, and offers it open-loop Poisson
// traffic at two fixed rates. 90% of jobs are Zipf draws from a hot set
// the set-up cached, so they take the read path (cache Get plus two
// journal appends); the rest are fresh small experiments, the write path
// (journal, queue, run, cache Put). It is the only workload on the
// jobq -> resultcache -> journal -> HTTP path; simulator-only changes
// should leave it unchanged.
const (
	svcLowRate = 100.0 // jobs/s
	// svcHighRate keeps the one worker about a third busy on the 2-core
	// reference host (28-45% over 25 runs, outside one spell in which the
	// host starved the whole process): busy enough that misses queue for
	// it. Queueing multiplies any change in host speed in the tail. At
	// 540 jobs/s the worker was 52-64% busy while the host ran fast, but
	// 68-84% in its slow spells, once 110% with the median job at 229 ms,
	// and the tail's quartiles over ten seeds were 25% apart.
	svcHighRate = 300.0 // jobs/s
	svcHotSet   = 32
	// svcMissEvery makes every tenth job a fresh spec: a fixed share, so
	// the worker's load barely depends on the seed.
	svcMissEvery = 10
	// svcVerifyEvery is the share of misses re-run directly through the
	// experiments registry and compared byte for byte.
	svcVerifyEvery = 10
	svcSLO         = 100 * time.Millisecond
	svcPoll        = 2 * time.Millisecond
	// svcSegment is the longest stretch of open loop between two host
	// probes. A segment ends once its last job has finished, so the loop
	// pauses for that drain and the probes, about 60 ms, once a segment.
	// The host's speed drifts within a 15-second phase: scaled by probes
	// at the phase's ends only, the median job's quartiles over ten seeds
	// were 19-22% apart and the tail's 20-21%; with 2.5-second segments
	// 8% and 15%, with 1-second segments 9% and 11%.
	svcSegment = 1000 * time.Millisecond
	// svcJobTimeout bounds how long the client waits for one job.
	svcJobTimeout = 30 * time.Second
)

// svcSpec is one job the client can submit.
type svcSpec struct {
	Experiment string          `json:"experiment"`
	Config     json.RawMessage `json:"config"`
}

// wlPresets are the workload-engine experiments a spec may name, and
// wlProcs the processor counts a spec may scale them to: together the
// job sizes of the service's write path. On the 2-core reference host
// the fifteen kinds run alone in 1-35 ms, 7.5 ms on average; on the
// server, sharing the cores with the hits' handlers, they take longer,
// and the high rate's 30 misses a second keep the one worker about a
// third busy. Every run prints the busy share it measured.
var (
	wlPresets = []string{"producer-consumer", "stencil", "false-sharing", "hot-lock", "multi-tenant"}
	wlProcs   = []int{8, 16, 32}
)

// specGen draws distinct small job specs. The (preset, procs) kind
// rotates, so any seed gets the same mix of job sizes; the seed picks
// each spec's workload seed.
type specGen struct {
	rng  *sim.RNG
	seen map[string]bool
	next int
}

func (g *specGen) spec() svcSpec {
	for {
		preset := wlPresets[g.next%len(wlPresets)]
		procs := wlProcs[g.next/len(wlPresets)%len(wlProcs)]
		s := svcSpec{Experiment: "wl-" + preset, Config: json.RawMessage(fmt.Sprintf(
			`{"spec":{"seed":%d},"procs":[%d]}`, g.rng.Uint64()%1_000_000_000, procs))}
		key := s.Experiment + string(s.Config)
		if !g.seen[key] {
			g.seen[key] = true
			g.next++
			return s
		}
	}
}

// svcJob is one scheduled submission.
type svcJob struct {
	due  time.Duration // after the phase starts
	hot  int           // hot-set index, -1 for a fresh spec
	spec svcSpec
}

// schedule draws an open-loop Poisson arrival sequence at rate for d.
func schedule(rng *rand.Rand, zipf *rand.Zipf, gen *specGen, rate float64, d time.Duration, first int) []svcJob {
	var jobs []svcJob
	t := 0.0
	for i := first; ; i++ {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return jobs
		}
		j := svcJob{due: time.Duration(t * float64(time.Second)), hot: int(zipf.Uint64())}
		if i%svcMissEvery == svcMissEvery-1 {
			j.hot, j.spec = -1, gen.spec()
		}
		jobs = append(jobs, j)
	}
}

// svcInstance is one running service plus its client.
type svcInstance struct {
	dir   string
	cache *resultcache.Cache
	srv   *server.Server
	hs    *http.Server
	done  chan struct{} // closed when Serve returns
	base  string
	hc    *http.Client

	// recording turns on the two timestamps below, in a traced run's
	// traced half.
	recording atomic.Bool
	mu        sync.Mutex
	arrived   map[string]time.Time // job id -> when its POST reached the server
	started   map[string]time.Time // job id -> when the worker picked it up
}

// startService opens a fresh cache and journal under a new temporary
// directory and serves them on a loopback port.
func startService() (*svcInstance, error) {
	dir, err := os.MkdirTemp("", "ksrbench-service-")
	if err != nil {
		return nil, err
	}
	s := &svcInstance{
		dir: dir, done: make(chan struct{}),
		arrived: make(map[string]time.Time), started: make(map[string]time.Time),
	}
	fail := func(err error) (*svcInstance, error) {
		os.RemoveAll(dir)
		return nil, err
	}
	if s.cache, err = resultcache.Open(filepath.Join(dir, "cache"), 256<<20); err != nil {
		return fail(err)
	}
	s.srv, err = server.New(server.Config{
		Workers: 1, QueueCap: 4096, Cache: s.cache,
		JournalPath: filepath.Join(dir, "journal"),
		BeforeRun: func(_ context.Context, id string, _ int) error {
			if s.recording.Load() {
				s.mu.Lock()
				s.started[id] = time.Now()
				s.mu.Unlock()
			}
			return nil
		},
	})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Drain(time.Second)
		return fail(err)
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.noteArrivals(s.srv.Handler())}
	go func() {
		s.hs.Serve(ln)
		close(s.done)
	}()
	// Two connections: the submitter's and the poller's.
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return s, nil
}

// noteArrivals wraps the server's handler. While recording, it notes
// when each job submission reached the server, before the server
// journals the job and calls Queue.Submit, so a job's wait for the
// worker (to BeforeRun) is timed from a point on the server that always
// precedes it.
func (s *svcInstance) noteArrivals(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" || !s.recording.Load() {
			next.ServeHTTP(w, r)
			return
		}
		at := time.Now()
		tw := &teeWriter{ResponseWriter: w}
		next.ServeHTTP(tw, r)
		var sr api.SubmitResponse
		if json.Unmarshal(tw.body.Bytes(), &sr) != nil {
			return
		}
		s.mu.Lock()
		for _, h := range sr.Jobs {
			s.arrived[h.ID] = at
		}
		s.mu.Unlock()
	})
}

// teeWriter keeps a copy of the response body it passes on.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *teeWriter) Write(b []byte) (int, error) {
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

// dispatchWaits returns, for every finished miss seen while recording,
// the time from its POST reaching the server to the worker starting it,
// in microseconds.
func (s *svcInstance) dispatchWaits(obs []jobObs) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var waits []float64
	for _, o := range obs {
		if o.failed || o.hit {
			continue
		}
		at, ok1 := s.arrived[o.id]
		run, ok2 := s.started[o.id]
		if ok1 && ok2 {
			waits = append(waits, run.Sub(at).Seconds()*1e6)
		}
	}
	return waits
}

// close stops the listener, drains the server and removes the directory.
func (s *svcInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.hc.CloseIdleConnections()
	s.srv.Drain(5 * time.Second)
	os.RemoveAll(s.dir)
}

// submit posts one job and returns its handle and HTTP status.
func (s *svcInstance) submit(spec svcSpec) (api.JobHandle, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return api.JobHandle{}, 0, err
	}
	resp, err := s.hc.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return api.JobHandle{}, 0, err
	}
	defer resp.Body.Close()
	var sr api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return api.JobHandle{}, resp.StatusCode, err
	}
	if len(sr.Jobs) != 1 {
		return api.JobHandle{}, resp.StatusCode, fmt.Errorf("submit answered %d handles", len(sr.Jobs))
	}
	return sr.Jobs[0], resp.StatusCode, nil
}

// get fetches one job's status.
func (s *svcInstance) get(id string) (api.JobStatus, error) {
	resp, err := s.hc.Get(s.base + "/v1/jobs/" + id)
	if err != nil {
		return api.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func terminal(state string) bool {
	switch state {
	case api.StateDone, api.StateFailed, api.StateCancelled, api.StateRejected, api.StateQuarantined:
		return true
	}
	return false
}

// compactJSON strips the transport's indentation so results compare
// byte for byte.
func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if json.Compact(&buf, b) != nil {
		return b
	}
	return buf.Bytes()
}

// runOnce submits spec and polls until it finishes, returning its result.
func (s *svcInstance) runOnce(spec svcSpec) ([]byte, error) {
	h, code, err := s.submit(spec)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("submit %s: HTTP %d", spec.Experiment, code)
	}
	deadline := time.Now().Add(svcJobTimeout)
	for {
		st, err := s.get(h.ID)
		if err != nil {
			return nil, err
		}
		if st.State == api.StateDone {
			return compactJSON(st.Result), nil
		}
		if terminal(st.State) {
			return nil, fmt.Errorf("%s job %s: %s %s", spec.Experiment, h.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s job %s: still %s after %v", spec.Experiment, h.ID, st.State, svcJobTimeout)
		}
		time.Sleep(svcPoll)
	}
}

// directRun runs spec through the experiments registry in this process,
// the reference every service answer must equal.
func directRun(spec svcSpec) ([]byte, error) {
	r, ok := experiments.LookupExperiment(spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", spec.Experiment)
	}
	cfg, err := r.DecodeConfig(spec.Config)
	if err != nil {
		return nil, err
	}
	res, err := r.Run(nil, cfg)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return compactJSON(b), nil
}

// jobObs is what the client saw of one job.
type jobObs struct {
	due      time.Duration
	hit      bool
	failed   bool
	rejected bool    // refused with 429
	wrong    bool    // a hit whose answer differs from the hot-set result
	latency  float64 // seconds from due time to result observed
	late     float64 // seconds the submission went out after its due time
	run      float64 // a miss's run on the worker, in seconds, as the server timed it
	id       string
	result   []byte // a miss's answer
	submitMs float64
}

// submitLoop sends job i at start+due[i], in order, from one goroutine:
// the open loop. send gets the due instant so that it can time the job
// from it; a send that stalls delays every later submission, and their
// latencies grow by the stall. It returns how late each send went out.
func submitLoop(start time.Time, due []time.Duration, send func(i int, dueAt time.Time)) []float64 {
	late := make([]float64, len(due))
	for i, d := range due {
		at := start.Add(d)
		sleepUntil(at)
		late[i] = time.Since(at).Seconds()
		send(i, at)
	}
	return late
}

// phase offers jobs at their due times and returns one observation per
// job. Hits finish on the submitting connection (POST, then GET of the
// result, checked against the hot-set answer at once); misses are handed
// to a poller on the second connection.
func (s *svcInstance) phase(jobs []svcJob, hotSpecs []svcSpec, hotResults [][]byte, tr *svcTrace) []jobObs {
	obs := make([]jobObs, len(jobs))
	type pending struct {
		i     int
		dueAt time.Time
	}
	// Sized to the number of sends, so the submitter never blocks on it.
	misses := make(chan pending, len(jobs))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range misses {
			o := &obs[p.i]
			deadline := p.dueAt.Add(svcJobTimeout)
			for {
				t0 := time.Now()
				st, err := s.get(o.id)
				tr.span("server.poll", p.i, t0)
				if err != nil || (terminal(st.State) && st.State != api.StateDone) || time.Now().After(deadline) {
					o.failed = true
					break
				}
				if st.State == api.StateDone {
					o.latency = time.Since(p.dueAt).Seconds()
					o.result = compactJSON(st.Result)
					o.run = st.WallSeconds
					break
				}
				time.Sleep(svcPoll)
			}
		}
	}()
	due := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		due[i] = j.due
	}
	late := submitLoop(time.Now(), due, func(i int, dueAt time.Time) {
		o := &obs[i]
		o.due = jobs[i].due
		spec := jobs[i].spec
		if jobs[i].hot >= 0 {
			spec = hotSpecs[jobs[i].hot]
		}
		t0 := time.Now()
		h, code, err := s.submit(spec)
		o.submitMs = tr.span("server.submit", i, t0) * 1e3
		o.id = h.ID
		if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
			o.failed = true
			o.rejected = code == http.StatusTooManyRequests
			return
		}
		if h.State != api.StateDone {
			misses <- pending{i, dueAt}
			return
		}
		o.hit = true
		t0 = time.Now()
		st, err := s.get(h.ID)
		tr.span("server.result", i, t0)
		if err != nil || st.State != api.StateDone {
			o.failed = true
			return
		}
		o.latency = time.Since(dueAt).Seconds()
		o.wrong = !bytes.Equal(compactJSON(st.Result), hotResults[jobs[i].hot])
	})
	close(misses)
	wg.Wait()
	for i := range obs {
		obs[i].late = late[i]
	}
	return obs
}

// svcTrace records the client's spans in a traced service run. The
// submitter and the poller run concurrently, so spans go straight into
// the tracer's per-name totals rather than through its single-timeline
// accounting. A nil *svcTrace records nothing.
type svcTrace struct {
	mu   sync.Mutex
	tr   *tracer
	durs map[string][]float64 // span name -> each span's length in seconds
}

func newSvcTrace() *svcTrace {
	return &svcTrace{tr: newTracer(), durs: make(map[string][]float64)}
}

// span records a span from start to now and returns its length in
// seconds, which a nil *svcTrace still measures.
func (t *svcTrace) span(name string, req int, start time.Time) float64 {
	end := time.Now()
	d := end.Sub(start).Seconds()
	if t == nil {
		return d
	}
	t.mu.Lock()
	t.tr.record(name, uint64(req), start, end)
	t.durs[name] = append(t.durs[name], d)
	t.mu.Unlock()
	return d
}

// svcPhaseStats summarizes one rate's observations.
type svcPhaseStats struct {
	rate               float64
	obs                []jobObs
	jobs, failed, hits int
	all, hit, miss     summary
	late               summary
	sloMiss            float64
	// busy is the share of the phase the worker spent running misses:
	// their run times as the server timed them (wall_seconds), summed,
	// over the phase's length.
	busy float64
}

func phaseStats(rate float64, length time.Duration, obs []jobObs) svcPhaseStats {
	st := svcPhaseStats{rate: rate, obs: obs, jobs: len(obs)}
	var all, hit, miss, late []float64
	var run float64
	slo := 0
	for _, o := range obs {
		late = append(late, o.late)
		run += o.run
		if o.failed {
			st.failed++
			slo++
			continue
		}
		all = append(all, o.latency)
		if o.hit {
			st.hits++
			hit = append(hit, o.latency)
		} else {
			miss = append(miss, o.latency)
		}
		if o.latency > svcSLO.Seconds() {
			slo++
		}
	}
	st.all, st.hit, st.miss, st.late = summarize(all), summarize(hit), summarize(miss), summarize(late)
	st.sloMiss = ratio(float64(slo), float64(len(obs)))
	st.busy = run / length.Seconds()
	return st
}

func (p svcPhaseStats) String() string {
	return fmt.Sprintf("%.0f jobs/s: %d jobs, %d failed, %d hits; worker busy %.1f%%; latency ms %s; hits %s; misses %s; generator lateness ms %s; over %v or failed %.4f",
		p.rate, p.jobs, p.failed, p.hits, 100*p.busy, p.all.scaled(1e3), p.hit.scaled(1e3), p.miss.scaled(1e3), p.late.scaled(1e3), svcSLO, p.sloMiss)
}

// serviceSize is the hot-set size and rates; tiny shrinks all three.
func serviceSize(tiny bool) (hot int, low, high float64) {
	if tiny {
		return 4, 20, 40
	}
	return svcHotSet, svcLowRate, svcHighRate
}

// runService runs the service workload.
func runService(o options) *outcome {
	out := newOutcome("service")
	nHot, low, high := serviceSize(o.tiny)
	rng := rand.New(rand.NewSource(int64(o.seed)))
	gen := &specGen{rng: sim.NewRNG(o.seed), seen: make(map[string]bool)}
	hotSpecs := make([]svcSpec, nHot)
	for i := range hotSpecs {
		hotSpecs[i] = gen.spec()
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(nHot-1))

	probe, err := newHostProbe(o.tiny)
	out.attempted++
	if err != nil {
		out.fail("host probe: %v", err)
		return out
	}
	defer probe.close()

	// Set up setupReps times from an empty directory; keep the last. A
	// host probe runs before the first and after every set-up.
	var s *svcInstance
	var hotResults [][]byte
	var setupTimes []float64
	probes := []float64{probe.seconds()}
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		s, err = startService()
		out.attempted++
		if err != nil {
			out.fail("start service: %v", err)
			return out
		}
		hotResults = hotResults[:0]
		for _, spec := range hotSpecs {
			b, err := s.runOnce(spec)
			if err != nil {
				out.fail("warm %s: %v", spec.Experiment, err)
				s.close()
				return out
			}
			hotResults = append(hotResults, b)
		}
		el := time.Since(start).Seconds()
		probes = append(probes, probe.seconds())
		setupTimes = append(setupTimes, probe.scale(el, probes[i], probes[i+1]))
	}
	defer s.close()

	// Every hot-set answer must equal a direct run of the same config.
	for i, spec := range hotSpecs {
		out.attempted++
		want, err := directRun(spec)
		if err != nil || !bytes.Equal(want, hotResults[i]) {
			out.fail("hot spec %d (%s %s): service answer differs from a direct run (%v)", i, spec.Experiment, spec.Config, err)
		}
	}
	digest, err := digestOf(hotResults)
	if err != nil {
		out.fail("digest: %v", err)
	}
	out.digest = digest
	out.checkGolden(o)

	// hostSpeed probes the host between segments, while the server is
	// idle: the median of three probes.
	hostSpeed := func() float64 {
		p := []float64{probe.seconds(), probe.seconds(), probe.seconds()}
		probes = append(probes, p...)
		return median(p)
	}
	// scale converts a segment's job latencies to the reference host's
	// speed, like a simulator round's time. A traced run keeps them as
	// measured, on the same clock as its spans.
	scale := func(obs []jobObs, before, after float64) {
		if o.trace {
			return
		}
		for i := range obs {
			obs[i].latency = probe.scale(obs[i].latency, before, after)
		}
	}

	// offer runs the open loop at rate for d, in segments of at most
	// svcSegment with the host probed between them, and scales each
	// segment's latencies by the probes on either side of it. first is
	// the number of jobs offered before, which keeps every tenth job a
	// miss across segments.
	offer := func(rate float64, d time.Duration, first int, tr *svcTrace) ([]svcJob, []jobObs) {
		var jobs []svcJob
		var obs []jobObs
		before := hostSpeed()
		for at := time.Duration(0); at < d; at += svcSegment {
			seg := schedule(rng, zipf, gen, rate, min(svcSegment, d-at), first+len(jobs))
			segObs := s.phase(seg, hotSpecs, hotResults, tr)
			after := hostSpeed()
			scale(segObs, before, after)
			before = after
			jobs, obs = append(jobs, seg...), append(obs, segObs...)
		}
		return jobs, obs
	}

	// measure offers the low rate for a quarter of d, then the high rate
	// for the rest: the tail is the high rate's.
	measure := func(d time.Duration, tr *svcTrace) (lp, hp svcPhaseStats) {
		lowJobs, lowObs := offer(low, d/4, 0, tr)
		highJobs, highObs := offer(high, d-d/4, len(lowJobs), tr)
		out.checkJobs(append(append([]svcJob(nil), lowJobs...), highJobs...), append(append([]jobObs(nil), lowObs...), highObs...))
		return phaseStats(low, d/4, lowObs), phaseStats(high, d-d/4, highObs)
	}

	if !o.trace {
		lp, hp := measure(o.seconds, nil)
		all := summarize(append(latencies(lp.obs), latencies(hp.obs)...))
		out.e2e = map[string]float64{
			"setup_s":         median(setupTimes),
			"latency_ms_p50":  all.P50 * 1e3,
			"latency_ms_tail": hp.all.Tail * 1e3,
			"peak_rss_mb":     peakRSSMB() - probeBytes/(1<<20),
		}
		out.note("host probe: median %.4g ms over %d probes; %.4g ms on the reference host", median(probes)*1e3, len(probes), probe.ref*1e3)
		out.note("job latencies below are scaled to the reference host's speed")
		out.note("jobs (both rates): latency ms %s", all.scaled(1e3))
		out.note("tail: p%g of the %d jobs at %.0f jobs/s: %.4g ms", hp.all.TailP, hp.all.N, high, hp.all.Tail*1e3)
		out.note("%s", lp)
		out.note("%s", hp)
		out.note("highest rate of {%.0f, %.0f} jobs/s with p99 under %v and no failures: %s", low, high, svcSLO, ladder(lp, hp))
		return out
	}

	// Traced: the first half untraced for the overhead reference, then
	// the second half with client spans and server timestamps, then the
	// layer probes.
	plainLow, plainHigh := measure(o.seconds/2, nil)
	before := s.cache.Stats()
	beforeM := serverMetrics(s.srv)
	tr := newSvcTrace()
	s.recording.Store(true)
	lp, hp := measure(o.seconds/2, tr)
	s.recording.Store(false)
	after := s.cache.Stats()
	afterM := serverMetrics(s.srv)
	obs := append(append([]jobObs(nil), lp.obs...), hp.obs...)
	m := layerMetrics(obs, tr)
	waits := s.dispatchWaits(obs)
	if w := sortedCopy(waits); len(w) > 0 && w[0] < 0 {
		out.attempted++
		out.fail("a miss started %.0f us before its submission reached the server", -w[0])
	}
	m["jobq.dispatch_wait_us"] = median(waits)
	m["jobq.busy_frac"] = hp.busy
	m["server.slo_miss_frac"] = hp.sloMiss
	m["resultcache.hits"] = float64(after.Hits - before.Hits)
	m["resultcache.misses"] = float64(after.Misses - before.Misses)
	m["resultcache.evictions"] = float64(after.Evictions - before.Evictions)
	m["jobq.completed"] = afterM["ksrsimd_queue_completed_total"] - beforeM["ksrsimd_queue_completed_total"]
	m["journal.compactions"] = afterM["ksrsimd_journal_compactions_total"] - beforeM["ksrsimd_journal_compactions_total"]
	if err := probeLayers(s, hotSpecs, hotResults, m); err != nil {
		out.attempted++
		out.fail("layer probes: %v", err)
	}
	plain := summarize(append(latencies(plainLow.obs), latencies(plainHigh.obs)...))
	traced := summarize(latencies(obs))
	m["trace.overhead_frac"] = traced.P50/plain.P50 - 1
	out.note("traced half: %s", lp)
	out.note("traced half: %s", hp)
	out.perLayer = m
	f := tr.tr.file("service")
	out.spans = &f
	return out
}

// layerMetrics derives the server-side per-layer metrics from the traced
// jobs and their client spans.
func layerMetrics(obs []jobObs, tr *svcTrace) map[string]float64 {
	m := make(map[string]float64)
	var submit, hit, miss []float64
	var jobTime float64
	hits, rejected := 0, 0
	for _, o := range obs {
		submit = append(submit, o.submitMs)
		if o.rejected {
			rejected++
		}
		if o.failed {
			continue
		}
		jobTime += o.latency
		if o.hit {
			hits++
			hit = append(hit, o.latency*1e3)
		} else {
			miss = append(miss, o.latency*1e3)
		}
	}
	sub := sortedCopy(submit)
	m["server.submit_ms_p50"] = quantile(sub, 0.5)
	m["server.submit_ms_p99"] = quantile(sub, 0.99)
	m["server.poll_ms_p50"] = median(tr.durs["server.poll"]) * 1e3
	m["server.hit_ratio"] = ratio(float64(hits), float64(len(obs)))
	m["server.hit_ms_p50"] = median(hit)
	m["server.miss_ms_p50"] = median(miss)
	m["server.rejected"] = float64(rejected)
	var client int64
	for _, st := range tr.tr.stats {
		client += st.Dur
	}
	m["server.self_frac"] = ratio(float64(client)/1e9, jobTime)
	m["trace.unexplained_frac"] = 1 - m["server.self_frac"]
	return m
}

// probeLayers times the cache and journal calls the server makes on the
// read and write paths, driving each layer alone through its public
// functions in the service's temporary directory.
func probeLayers(s *svcInstance, specs []svcSpec, results [][]byte, m map[string]float64) error {
	c, err := resultcache.Open(filepath.Join(s.dir, "probe-cache"), 256<<20)
	if err != nil {
		return err
	}
	var put, get []float64
	for i, spec := range specs {
		e := &resultcache.Entry{
			Key: resultcache.Key(spec.Experiment, spec.Config), Experiment: spec.Experiment,
			Config: spec.Config, Result: results[i],
		}
		t0 := time.Now()
		if err := c.Put(e); err != nil {
			return err
		}
		put = append(put, time.Since(t0).Seconds()*1e6)
		t0 = time.Now()
		if _, ok := c.Get(e.Key); !ok {
			return fmt.Errorf("probe cache lost %s", e.Key)
		}
		get = append(get, time.Since(t0).Seconds()*1e6)
	}
	m["resultcache.put_us"] = median(put)
	m["resultcache.get_us"] = median(get)

	j, _, err := jobq.OpenJournal(filepath.Join(s.dir, "probe-journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	var app []float64
	for i := range specs {
		t0 := time.Now()
		if err := j.Append(jobq.Record{Type: jobq.RecSubmit, ID: fmt.Sprintf("probe-%d", i), Key: "k", Config: specs[i].Config}); err != nil {
			return err
		}
		app = append(app, time.Since(t0).Seconds()*1e6)
	}
	m["journal.append_us"] = median(app)
	m["journal.bytes_per_append"] = ratio(float64(j.Bytes()), float64(len(specs)))
	return nil
}

// serverMetrics reads the server's own metric registry.
func serverMetrics(srv *server.Server) map[string]float64 {
	var b strings.Builder
	srv.Metrics().WritePrometheus(&b)
	samples, err := metrics.ParsePrometheus(b.String())
	out := make(map[string]float64)
	if err != nil {
		return out
	}
	for _, s := range samples {
		if len(s.Labels) == 0 {
			out[s.Name] = s.Value
		}
	}
	return out
}

// checkJobs counts every job and checks each answer: a hit must have
// returned the hot-set result, and one miss in svcVerifyEvery is re-run
// directly.
func (o *outcome) checkJobs(jobs []svcJob, obs []jobObs) {
	misses := 0
	for i, ob := range obs {
		o.attempted++
		j := jobs[i]
		switch {
		case ob.failed:
			o.fail("job %d (%s): failed or refused", i, j.describe())
		case ob.wrong:
			o.fail("job %d (hot %d): answer differs from the hot-set result", i, j.hot)
		case j.hot < 0:
			misses++
			if misses%svcVerifyEvery != 0 {
				continue
			}
			want, err := directRun(j.spec)
			if err != nil || !bytes.Equal(want, ob.result) {
				o.fail("job %d (%s): answer differs from a direct run (%v)", i, j.describe(), err)
			}
		}
	}
}

func (j svcJob) describe() string {
	if j.hot >= 0 {
		return fmt.Sprintf("hot %d", j.hot)
	}
	return j.spec.Experiment + " " + string(j.spec.Config)
}

func latencies(obs []jobObs) []float64 {
	var out []float64
	for _, o := range obs {
		if !o.failed {
			out = append(out, o.latency)
		}
	}
	return out
}

// ladder names the highest offered rate whose p99 met the limit with no
// failed job; phases come in ascending order of rate.
func ladder(phases ...svcPhaseStats) string {
	for i := len(phases) - 1; i >= 0; i-- {
		p := phases[i]
		if p.failed == 0 && p.all.TailP >= 99 && p.all.Tail <= svcSLO.Seconds() {
			return fmt.Sprintf("%.0f jobs/s", p.rate)
		}
	}
	return "none"
}
