package metrics

import (
	"fmt"
	"sort"
	"sync"
)

// Fleet metrics: a small stdlib-only registry of counters, gauges, and
// fixed-bucket histograms for the ksrsimd service. The simulator side of
// this package characterizes *simulated* machines (speedup tables,
// sparklines); the registry characterizes the *service* that runs them —
// submit-to-result latency distributions, queue depth, shed and retry
// counts — and exports them in the Prometheus text exposition format.
//
// Concurrency: histograms are written from job worker goroutines while
// /v1/metrics scrapes, so Histogram takes a mutex; counter and gauge
// funcs are sampled at scrape time and must be safe to call concurrently
// (the jobq/resultcache Stats methods are).

// Histogram is a fixed-bucket histogram of float64 observations.
// Buckets are cumulative in the exposition (Prometheus `le` semantics);
// internally counts[i] holds observations in (bounds[i-1], bounds[i]],
// with one extra slot for +Inf.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1
	sum    float64
	total  uint64
}

// NewHistogram builds a histogram with the given strictly increasing
// upper bounds. It panics on empty or unsorted bounds — registry
// construction is programmer-controlled, not input-driven.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds; the +Inf bucket is Counts[len(Bounds)]
	Counts []uint64  // per-bucket (non-cumulative) counts, len(Bounds)+1
	Sum    float64
	Total  uint64
}

// Snapshot returns a consistent copy.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Total:  h.total,
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the containing bucket, the same estimate
// Prometheus's histogram_quantile computes. Returns 0 on an empty
// histogram. Observations in the +Inf bucket clamp to the highest
// finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Total)
	cum := uint64(0)
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// metric is one registered name: exactly one of the fields is set.
type metric struct {
	help        string
	counterFunc func() uint64
	gaugeFunc   func() float64
	hist        *Histogram
}

// Registry holds named metrics and renders them as Prometheus text.
// Registration happens at construction time (server startup);
// double-registering a name panics.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

func (r *Registry) add(name, help string, m *metric) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	m.help = help
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("metrics: %q registered twice", name))
	}
	r.metrics[name] = m
}

// CounterFunc registers a counter sampled at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.add(name, help, &metric{counterFunc: fn})
}

// GaugeFunc registers a gauge sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, &metric{gaugeFunc: fn})
}

// Histogram registers and returns a new histogram with the given upper
// bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.add(name, help, &metric{hist: h})
	return h
}

// snapshot returns the registered metrics in name order.
func (r *Registry) snapshot() []struct {
	name string
	m    *metric
} {
	r.mu.Lock()
	out := make([]struct {
		name string
		m    *metric
	}, 0, len(r.metrics))
	for name, m := range r.metrics {
		out = append(out, struct {
			name string
			m    *metric
		}{name, m})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
