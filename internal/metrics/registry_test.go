package metrics

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	for _, bad := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 50, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Prometheus le semantics: observations equal to a bound land in it.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("counts[%d] = %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Total != 6 || s.Sum != 1063 {
		t.Errorf("total=%d sum=%v, want 6, 1063", s.Total, s.Sum)
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// 10 observations, all in (0,1]: p50 interpolates to the middle of
	// the first bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50 = %v, want 0.5", got)
	}
	if got := s.Quantile(1); got != 1 {
		t.Errorf("p100 = %v, want 1 (upper bound of bucket)", got)
	}

	// Empty histogram.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}

	// +Inf bucket clamps to the highest finite bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(99)
	if got := h2.Snapshot().Quantile(0.99); got != 1 {
		t.Errorf("+Inf-bucket p99 = %v, want clamp to 1", got)
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	zero := func() uint64 { return 0 }
	r.CounterFunc("a_total", "", zero)
	for name, f := range map[string]func(){
		"dup":   func() { r.CounterFunc("a_total", "", zero) },
		"empty": func() { r.CounterFunc("", "", zero) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registration did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// names sorted, HELP/TYPE comments, cumulative histogram buckets with a
// trailing +Inf, _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("ksrsimd_jobs_submitted_total", "Jobs accepted for execution.", func() uint64 { return 7 })
	r.GaugeFunc("ksrsimd_queue_depth", "Jobs waiting to run.", func() float64 { return 3 })
	r.CounterFunc("ksrsimd_cache_hits_total", "", func() uint64 { return 12 })
	h := r.Histogram("ksrsimd_job_latency_seconds", "Submit-to-result latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE ksrsimd_cache_hits_total counter
ksrsimd_cache_hits_total 12
# HELP ksrsimd_job_latency_seconds Submit-to-result latency.
# TYPE ksrsimd_job_latency_seconds histogram
ksrsimd_job_latency_seconds_bucket{le="0.1"} 2
ksrsimd_job_latency_seconds_bucket{le="1"} 3
ksrsimd_job_latency_seconds_bucket{le="+Inf"} 4
ksrsimd_job_latency_seconds_sum 30.6
ksrsimd_job_latency_seconds_count 4
# HELP ksrsimd_jobs_submitted_total Jobs accepted for execution.
# TYPE ksrsimd_jobs_submitted_total counter
ksrsimd_jobs_submitted_total 7
# HELP ksrsimd_queue_depth Jobs waiting to run.
# TYPE ksrsimd_queue_depth gauge
ksrsimd_queue_depth 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestParsePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("a_total", "help text", func() uint64 { return 5 })
	h := r.Histogram("lat_seconds", "", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		key := s.Name
		if le, ok := s.Labels["le"]; ok {
			key += "/" + le
		}
		byName[key] = s.Value
	}
	for key, want := range map[string]float64{
		"a_total":                 5,
		"lat_seconds_bucket/0.5":  1,
		"lat_seconds_bucket/1":    2,
		"lat_seconds_bucket/+Inf": 3,
		"lat_seconds_sum":         3,
		"lat_seconds_count":       3,
	} {
		if got, ok := byName[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}

	snap, ok := HistogramFromSamples(samples, "lat_seconds")
	if !ok {
		t.Fatal("HistogramFromSamples: histogram not found")
	}
	if snap.Total != 3 || snap.Sum != 3 {
		t.Errorf("reassembled total=%d sum=%v, want 3, 3", snap.Total, snap.Sum)
	}
	wantCounts := []uint64{1, 1, 1}
	for i, w := range wantCounts {
		if snap.Counts[i] != w {
			t.Errorf("reassembled counts = %v, want %v", snap.Counts, wantCounts)
			break
		}
	}
	if _, ok := HistogramFromSamples(samples, "missing"); ok {
		t.Error("HistogramFromSamples found a histogram that is not there")
	}
}

func TestParsePrometheusErrors(t *testing.T) {
	for _, bad := range []string{
		"no_value",
		"bad_value abc",
		`unterminated{le="1" 3`,
		`x{nolabel} 3`,
		" 3",
	} {
		if _, err := ParsePrometheus(bad); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted malformed input", bad)
		}
	}
}

func TestRenderHistogramEdgeCases(t *testing.T) {
	// Empty.
	if got := RenderHistogram(HistogramSnapshot{}, 20); !strings.Contains(got, "no observations") {
		t.Errorf("empty render = %q", got)
	}

	// Single bucket, all observations in it.
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	out := RenderHistogram(h.Snapshot(), 10)
	if !strings.Contains(out, "≤ 1") || !strings.Contains(out, "+Inf") {
		t.Errorf("single-bucket render missing labels:\n%s", out)
	}
	if !strings.Contains(out, "██████████") {
		t.Errorf("fullest bucket should span the full width:\n%s", out)
	}
	if !strings.Contains(out, "n=1") {
		t.Errorf("summary line missing count:\n%s", out)
	}

	// Zero-count buckets render as empty bars, one row per bucket.
	h2 := NewHistogram([]float64{1, 2, 3})
	h2.Observe(0.5)
	out2 := RenderHistogram(h2.Snapshot(), 10)
	if strings.Count(out2, "\n") != 5 { // 4 buckets + summary
		t.Errorf("want one row per bucket plus summary:\n%s", out2)
	}

	// Tiny nonzero counts keep a visible sliver.
	h3 := NewHistogram([]float64{1, 2})
	for i := 0; i < 1000; i++ {
		h3.Observe(0.5)
	}
	h3.Observe(1.5)
	out3 := RenderHistogram(h3.Snapshot(), 10)
	if !strings.Contains(out3, "▏") {
		t.Errorf("rare bucket lost its sliver:\n%s", out3)
	}

	// width < 1 clamps instead of panicking.
	_ = RenderHistogram(h.Snapshot(), 0)
}

// TestConcurrentScrape hammers the registry from writer goroutines while
// scrapes render it, mirroring job workers racing /v1/metrics. Run with
// -race.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var writes atomic.Uint64
	r.CounterFunc("writes_total", "", writes.Load)
	h := r.Histogram("lat_seconds", "", []float64{0.001, 0.01, 0.1, 1})
	r.GaugeFunc("depth", "", func() float64 { return float64(writes.Load() % 7) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				writes.Add(1)
				h.Observe(float64(i%100) / 100)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := ParsePrometheus(b.String()); err != nil {
			t.Fatalf("scrape %d produced unparseable text: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
