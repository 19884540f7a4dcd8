package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobq"
	"repro/internal/resultcache"
	"repro/internal/server/api"
)

// durableEnv is a restartable test daemon: journal and cache live on
// disk, so killing one Server and opening another replays real state.
type durableEnv struct {
	t        *testing.T
	dir      string
	cacheMax int64
	cfg      Config
}

func newDurableEnv(t *testing.T) *durableEnv {
	t.Helper()
	return &durableEnv{t: t, dir: t.TempDir(), cacheMax: 16 << 20}
}

// start opens a Server (plus httptest front end) on the env's journal
// and cache. Callers own shutdown: Kill or Drain, then ts.Close only
// after no handler can still be blocked.
func (e *durableEnv) start(mutate func(*Config)) (*Server, *httptest.Server) {
	e.t.Helper()
	cache, err := resultcache.Open(filepath.Join(e.dir, "cache"), e.cacheMax)
	if err != nil {
		e.t.Fatal(err)
	}
	cfg := Config{
		Workers:     1,
		QueueCap:    16,
		Cache:       cache,
		JournalPath: filepath.Join(e.dir, "journal.log"),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		e.t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

func submitOne(t *testing.T, base string, spec api.JobSpec) api.JobHandle {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil || len(sub.Jobs) != 1 {
		t.Fatalf("submit response %s: %v", body, err)
	}
	return sub.Jobs[0]
}

func latencySpec(cells int) api.JobSpec {
	return api.JobSpec{
		Experiment: "latency",
		Config:     json.RawMessage(fmt.Sprintf(`{"Cells":%d,"RegionBytes":16384,"Procs":[1,2]}`, cells)),
	}
}

// TestJournalRecoveryAfterKill is the in-package core of the chaos
// guarantee: a killed daemon restarted on the same journal and cache
// recovers every acknowledged job — finished ones from the cache,
// unfinished ones by re-running — and new ids never collide with
// recovered ones.
func TestJournalRecoveryAfterKill(t *testing.T) {
	env := newDurableEnv(t)

	// Phase 1: wedge the worker in the fault hook so acknowledged jobs
	// pile up queued behind it, then kill mid-flight.
	var wedge atomic.Bool
	gate := make(chan struct{})
	s1, ts1 := env.start(func(c *Config) {
		c.BeforeRun = func(ctx context.Context, id string, attempt int) error {
			if !wedge.Load() {
				return nil
			}
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})

	doneJob := submitOne(t, ts1.URL, latencySpec(4))
	if st := waitJob(t, ts1.URL, doneJob.ID); st.State != api.StateDone {
		t.Fatalf("setup job: %+v", st)
	}

	wedge.Store(true)
	var acked []api.JobHandle
	for _, cells := range []int{6, 8, 10} {
		h := submitOne(t, ts1.URL, latencySpec(cells))
		if h.State != api.StateQueued {
			t.Fatalf("wedged submit not queued: %+v", h)
		}
		acked = append(acked, h)
	}
	s1.Kill()
	ts1.Close()

	// Phase 2: restart on the same journal/cache. Everything acked must
	// be there: the finished job served from cache, the rest re-run.
	s2, ts2 := env.start(nil)
	defer func() {
		s2.Drain(5 * time.Second)
		ts2.Close()
	}()

	rec := s2.Recovery()
	if rec.Done != 1 || rec.Requeued != 3 {
		t.Fatalf("recovery = %+v, want 1 done + 3 requeued", rec)
	}
	if st := waitJob(t, ts2.URL, doneJob.ID); st.State != api.StateDone || !st.Cached || !st.Recovered {
		t.Errorf("pre-kill done job after restart: %+v", st)
	}
	for _, h := range acked {
		st := waitJob(t, ts2.URL, h.ID)
		if st.State != api.StateDone || !st.Recovered {
			t.Errorf("recovered job %s: state %s (%s)", h.ID, st.State, st.Error)
		}
		if st.Key != h.Key {
			t.Errorf("recovered job %s changed key: %s -> %s", h.ID, h.Key, st.Key)
		}
	}

	// Fresh ids must not collide with recovered ones.
	h := submitOne(t, ts2.URL, latencySpec(12))
	for _, old := range append(acked, doneJob) {
		if h.ID == old.ID {
			t.Fatalf("new job reused recovered id %s", h.ID)
		}
	}
	waitJob(t, ts2.URL, h.ID)

	var stats api.StatsResponse
	getJSON(t, ts2.URL+"/v1/stats", &stats)
	if stats.Journal == nil || stats.Journal.RecoveredPending != 3 || stats.Journal.RecoveredDone != 1 {
		t.Errorf("journal stats = %+v", stats.Journal)
	}
}

// TestDrainJournalsPendingForNextStart: a graceful drain must leave the
// journal holding exactly the unfinished set, compacted, so the next
// start resumes them.
func TestDrainJournalsPendingForNextStart(t *testing.T) {
	env := newDurableEnv(t)
	gate := make(chan struct{})
	s1, ts1 := env.start(func(c *Config) {
		c.BeforeRun = func(ctx context.Context, id string, attempt int) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	var acked []api.JobHandle
	for _, cells := range []int{4, 6} {
		acked = append(acked, submitOne(t, ts1.URL, latencySpec(cells)))
	}
	// Short grace: the wedged running job gets cancelled, the queued one
	// dropped; both must be journaled as pending.
	if clean := s1.Drain(50 * time.Millisecond); clean {
		t.Error("drain with a wedged job reported clean")
	}
	ts1.Close()

	s2, ts2 := env.start(nil)
	defer func() {
		s2.Drain(5 * time.Second)
		ts2.Close()
	}()
	if rec := s2.Recovery(); rec.Requeued != 2 {
		t.Fatalf("recovery after drain = %+v, want 2 requeued", rec)
	}
	for _, h := range acked {
		if st := waitJob(t, ts2.URL, h.ID); st.State != api.StateDone {
			t.Errorf("drained job %s after restart: %s (%s)", h.ID, st.State, st.Error)
		}
	}
}

// TestRetryThenSuccessAndQuarantine drives the full retry ladder over
// HTTP: an attempt-1-only fault retries to success; a permanent-fault
// job burns its attempt budget and lands in quarantine.
func TestRetryThenSuccessAndQuarantine(t *testing.T) {
	env := newDurableEnv(t)
	var poison atomic.Bool
	s, ts := env.start(func(c *Config) {
		c.BeforeRun = func(ctx context.Context, id string, attempt int) error {
			if poison.Load() {
				return errors.New("injected fault: always")
			}
			if attempt == 1 {
				return errors.New("injected fault: first attempt")
			}
			return nil
		}
	})
	defer func() {
		s.Drain(5 * time.Second)
		ts.Close()
	}()

	h := submitOne(t, ts.URL, latencySpec(4))
	st := waitJob(t, ts.URL, h.ID)
	if st.State != api.StateDone || st.Attempts != 2 {
		t.Fatalf("transient-fault job: state %s attempts %d (%s)", st.State, st.Attempts, st.Error)
	}

	poison.Store(true)
	spec := latencySpec(6)
	spec.MaxAttempts = 2
	h2 := submitOne(t, ts.URL, spec)
	st2 := waitJob(t, ts.URL, h2.ID)
	if st2.State != api.StateQuarantined || st2.Attempts != 2 {
		t.Fatalf("poison job: state %s attempts %d (%s)", st2.State, st2.Attempts, st2.Error)
	}
	if !strings.Contains(st2.Error, "quarantined after 2 attempts") {
		t.Errorf("quarantine error = %q", st2.Error)
	}

	var stats api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Queue.Retried < 2 || stats.Queue.Quarantined != 1 {
		t.Errorf("queue stats = %+v", stats.Queue)
	}
}

// TestPerAttemptTimeoutRetries: an attempt that overruns its
// wall-clock deadline is a transient failure — the next attempt (here
// unwedged) succeeds.
func TestPerAttemptTimeoutRetries(t *testing.T) {
	env := newDurableEnv(t)
	s, ts := env.start(func(c *Config) {
		c.BeforeRun = func(ctx context.Context, id string, attempt int) error {
			if attempt == 1 {
				<-ctx.Done() // hold the attempt until its deadline kills it
				return ctx.Err()
			}
			return nil
		}
	})
	defer func() {
		s.Drain(5 * time.Second)
		ts.Close()
	}()
	spec := latencySpec(4)
	// Generous deadline: attempt 1 is wedged until it expires, but real
	// attempts must fit comfortably even under the race detector.
	spec.TimeoutSeconds = 0.5
	h := submitOne(t, ts.URL, spec)
	st := waitJob(t, ts.URL, h.ID)
	if st.State != api.StateDone || st.Attempts < 2 {
		t.Fatalf("timeout job: state %s attempts %d (%s)", st.State, st.Attempts, st.Error)
	}
}

// readSSE collects events from one SSE response until "end" (or EOF),
// also returning the ids seen on the wire.
func readSSE(t *testing.T, resp *http.Response) (events []api.Event, ids []int64) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lastID int64 = -1
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			n, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			lastID = n
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, ev)
		if lastID >= 0 {
			ids = append(ids, lastID)
			lastID = -1
		}
		if ev.Type == "end" {
			return events, ids
		}
	}
	return events, ids
}

// TestSSELastEventIDReplay: lifecycle events carry monotonic SSE ids,
// and a reconnect with Last-Event-ID resumes exactly past what was
// seen — the missed transitions are replayed from history.
func TestSSELastEventIDReplay(t *testing.T) {
	env := newDurableEnv(t)
	s, ts := env.start(func(c *Config) {
		c.BeforeRun = func(ctx context.Context, id string, attempt int) error {
			if attempt == 1 {
				return errors.New("injected fault: first attempt")
			}
			return nil
		}
	})
	defer func() {
		s.Drain(5 * time.Second)
		ts.Close()
	}()
	h := submitOne(t, ts.URL, latencySpec(4))
	waitJob(t, ts.URL, h.ID)

	// Full replay: queued -> queued (attempt 1 died in the fault hook
	// before reaching running, so the retry re-queues) -> running -> done.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + h.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, ids := readSSE(t, resp)
	var states []string
	for _, ev := range events {
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	want := []string{"queued", "queued", "running", "done"}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Fatalf("replayed states = %v, want %v", states, want)
	}
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("SSE ids = %v, want 1..%d", ids, len(ids))
		}
	}

	// Reconnect as a client that saw through event 2: only the missed
	// suffix is replayed.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+h.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "2")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	events2, ids2 := readSSE(t, resp2)
	states = states[:0]
	for _, ev := range events2 {
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	if strings.Join(states, ",") != "running,done" {
		t.Errorf("resumed states = %v, want [running done]", states)
	}
	if len(ids2) != 2 || ids2[0] != 3 || ids2[1] != 4 {
		t.Errorf("resumed ids = %v, want [3 4]", ids2)
	}

	req3, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+h.ID+"/events", nil)
	req3.Header.Set("Last-Event-ID", "not-a-number")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed Last-Event-ID: status %d", resp3.StatusCode)
	}
}

// TestOverloadShedsLowestPriorityFirst: when the queue saturates, a
// higher-priority submission displaces the cheapest queued work instead
// of being rejected, and the victim is finished as shed. An equal- or
// lower-priority submission still gets 429 + Retry-After.
func TestOverloadShedsLowestPriorityFirst(t *testing.T) {
	env := newDurableEnv(t)
	gate := make(chan struct{})
	s, ts := env.start(func(c *Config) {
		c.QueueCap = 2
		c.BeforeRun = func(ctx context.Context, id string, attempt int) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	defer func() {
		close(gate)
		s.Drain(5 * time.Second)
		ts.Close()
	}()

	// One job wedges the worker; two more fill the queue at priority 0.
	submitOne(t, ts.URL, latencySpec(4))
	low1 := submitOne(t, ts.URL, latencySpec(6))
	low2 := submitOne(t, ts.URL, latencySpec(8))
	for s.queue.Stats().Queued != 2 {
		time.Sleep(time.Millisecond)
	}
	_ = low1

	// Equal priority: nothing below it to shed -> 429 with Retry-After.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", latencySpec(10))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("equal-priority overload: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Higher priority: displaces the newest lowest-priority queued job.
	spec := latencySpec(12)
	spec.Priority = 5
	h := submitOne(t, ts.URL, spec)
	if h.State != api.StateQueued {
		t.Fatalf("high-priority submission not admitted: %+v", h)
	}
	var victim api.JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+low2.ID, &victim)
	if victim.State != api.StateCancelled || !strings.Contains(victim.Error, "shed") {
		t.Errorf("shed victim = state %s error %q", victim.State, victim.Error)
	}
	var stats api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Queue.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", stats.Queue.Shed)
	}
}

// TestQueueByteBudget: the admission byte budget rejects work that the
// job-count bound would admit, and frees as jobs finish.
func TestQueueByteBudget(t *testing.T) {
	spec := latencySpec(4)
	// One admitted job's budget use is its canonical config length.
	runner, ok := experiments.LookupExperiment("latency")
	if !ok {
		t.Fatal("latency experiment missing")
	}
	cfg, err := runner.DecodeConfig(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := runner.CanonicalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	canonicalLen := int64(len(canonical))

	env2 := newDurableEnv(t)
	gate := make(chan struct{})
	s, ts := env2.start(func(c *Config) {
		c.QueueBytes = canonicalLen + canonicalLen/2 // room for one job, not two
		c.BeforeRun = func(ctx context.Context, id string, attempt int) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	defer func() {
		s.Drain(5 * time.Second)
		ts.Close()
	}()
	if h := submitOne(t, ts.URL, spec); h.State != api.StateQueued {
		t.Fatalf("first job not admitted: %+v", h)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", latencySpec(6))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit: status %d, body %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	json.Unmarshal(body, &sub)
	if sub.Jobs[0].State != api.StateRejected || !strings.Contains(sub.Jobs[0].Error, "byte budget") {
		t.Errorf("over-budget handle = %+v", sub.Jobs[0])
	}
	close(gate)
	// Once the first job finishes, its bytes return to the budget.
	for i := 0; ; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", latencySpec(6))
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if i > 500 {
			t.Fatal("budget never freed after job completion")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUserCancelIsJournaledTerminal: DELETE on a queued job writes a
// terminal record — a restart must NOT resurrect user-cancelled work.
func TestUserCancelIsJournaledTerminal(t *testing.T) {
	env := newDurableEnv(t)
	gate := make(chan struct{})
	s1, ts1 := env.start(func(c *Config) {
		c.BeforeRun = func(ctx context.Context, id string, attempt int) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	submitOne(t, ts1.URL, latencySpec(4)) // wedges the worker
	victim := submitOne(t, ts1.URL, latencySpec(6))

	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st api.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != api.StateCancelled {
		t.Fatalf("cancel: state %s", st.State)
	}
	s1.Kill()
	ts1.Close()

	s2, ts2 := env.start(nil)
	defer func() {
		s2.Drain(5 * time.Second)
		ts2.Close()
	}()
	if rec := s2.Recovery(); rec.Requeued != 1 {
		t.Fatalf("recovery = %+v, want only the wedged job requeued", rec)
	}
	var after api.JobStatus
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+victim.ID, &after); code != http.StatusOK {
		t.Fatalf("cancelled job vanished entirely: %d", code)
	}
	if after.State != api.StateCancelled {
		t.Errorf("user-cancelled job resurrected as %s", after.State)
	}
}

// TestMalformedJobFailsOnce: a config the experiment rejects ends the
// job failed with the validation message and journals its terminal
// record, so a restart on the same journal leaves it failed instead of
// running it again. Before validation, this saturation config panicked
// in a sweep worker and took the daemon down on every replay.
func TestMalformedJobFailsOnce(t *testing.T) {
	env := newDurableEnv(t)
	s1, ts1 := env.start(nil)
	spec := api.JobSpec{Experiment: "saturation", Config: json.RawMessage(`{"Accesses":0}`)}
	h := submitOne(t, ts1.URL, spec)
	if st := waitJob(t, ts1.URL, h.ID); st.State != api.StateFailed || !strings.Contains(st.Error, "Accesses") {
		t.Fatalf("malformed job: %+v, want failed naming Accesses", st)
	}
	s1.Kill()
	ts1.Close()

	j, records, err := jobq.OpenJournal(filepath.Join(env.dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	replayed := jobq.Reduce(records)
	if len(replayed) != 1 || replayed[0].Terminal != jobq.RecFail || replayed[0].Attempts != 1 {
		t.Fatalf("journal replays %+v, want one job failed after one attempt", replayed)
	}

	var runs atomic.Int32
	s2, ts2 := env.start(func(c *Config) {
		c.BeforeRun = func(context.Context, string, int) error {
			runs.Add(1)
			return nil
		}
	})
	defer func() {
		s2.Drain(5 * time.Second)
		ts2.Close()
	}()
	if rec := s2.Recovery(); rec.Requeued != 0 || rec.Terminal != 1 {
		t.Fatalf("recovery = %+v, want the failed job resurrected, nothing requeued", rec)
	}
	var after api.JobStatus
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+h.ID, &after); code != http.StatusOK || after.State != api.StateFailed {
		t.Errorf("after restart: status %d, %+v, want failed", code, after)
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("restarted server ran the failed job %d times", n)
	}
}

// TestRecoveredResultBytesIdentical: the result a recovered job
// produces is byte-identical to the pre-kill uninterrupted run of the
// same config — the determinism contract the whole recovery protocol
// stands on.
func TestRecoveredResultBytesIdentical(t *testing.T) {
	env := newDurableEnv(t)
	s1, ts1 := env.start(nil)
	ref := submitOne(t, ts1.URL, latencySpec(8))
	refSt := waitJob(t, ts1.URL, ref.ID)
	s1.Kill()
	ts1.Close()

	// New env = fresh journal AND fresh cache: force a true re-run.
	env2 := newDurableEnv(t)
	var wedge atomic.Bool
	gate := make(chan struct{})
	s2, ts2 := env2.start(func(c *Config) {
		c.BeforeRun = func(ctx context.Context, id string, attempt int) error {
			if !wedge.Load() {
				return nil
			}
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	wedge.Store(true)
	h := submitOne(t, ts2.URL, latencySpec(8))
	s2.Kill()
	ts2.Close()

	s3, ts3 := env2.start(nil)
	defer func() {
		s3.Drain(5 * time.Second)
		ts3.Close()
	}()
	st := waitJob(t, ts3.URL, h.ID)
	if st.State != api.StateDone {
		t.Fatalf("recovered job: %s (%s)", st.State, st.Error)
	}
	if !bytes.Equal(st.Result, refSt.Result) || st.Text != refSt.Text {
		t.Error("recovered result differs from uninterrupted run")
	}
}
