package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), metrics sorted by name so the
// output is deterministic for a fixed state. Counters render as
// `# TYPE <name> counter`, gauges as gauge, histograms as the standard
// `_bucket{le="..."}` / `_sum` / `_count` triplet with a trailing
// le="+Inf" bucket.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, e := range r.snapshot() {
		name, m := e.name, e.m
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, m.help); err != nil {
				return err
			}
		}
		var err error
		switch {
		case m.counterFunc != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, m.counterFunc())
		case m.gaugeFunc != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(m.gaugeFunc()))
		case m.hist != nil:
			err = writeHistogram(w, name, m.hist.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	cum := uint64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Bounds)]
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, cum, name, formatFloat(s.Sum), name, cum)
	return err
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Sample is one parsed exposition line: a metric name, its label pairs
// (in source order), and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePrometheus parses text in the exposition format back into
// samples, skipping comment lines. It is the client half of the format
// (`ksrsim top` renders a live registry from it) and deliberately
// supports only what WritePrometheus emits: no timestamps, no escaping
// beyond quoted label values.
func ParsePrometheus(text string) ([]Sample, error) {
	var out []Sample
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: line %d: no value: %q", ln+1, line)
		}
		head, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: bad value %q", ln+1, valStr)
		}
		s := Sample{Value: val}
		if i := strings.IndexByte(head, '{'); i >= 0 {
			if !strings.HasSuffix(head, "}") {
				return nil, fmt.Errorf("metrics: line %d: unterminated labels: %q", ln+1, head)
			}
			s.Name = head[:i]
			s.Labels = map[string]string{}
			body := head[i+1 : len(head)-1]
			for _, pair := range strings.Split(body, ",") {
				if pair == "" {
					continue
				}
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					return nil, fmt.Errorf("metrics: line %d: bad label %q", ln+1, pair)
				}
				k := strings.TrimSpace(pair[:eq])
				v, err := strconv.Unquote(strings.TrimSpace(pair[eq+1:]))
				if err != nil {
					return nil, fmt.Errorf("metrics: line %d: bad label value %q", ln+1, pair)
				}
				s.Labels[k] = v
			}
		} else {
			s.Name = head
		}
		if s.Name == "" {
			return nil, fmt.Errorf("metrics: line %d: empty metric name", ln+1)
		}
		out = append(out, s)
	}
	return out, nil
}

// HistogramFromSamples reassembles a HistogramSnapshot from parsed
// `<name>_bucket`/`<name>_sum`/`<name>_count` samples. Returns false
// when the samples carry no such histogram.
func HistogramFromSamples(samples []Sample, name string) (HistogramSnapshot, bool) {
	type bk struct {
		le  float64
		cum uint64
	}
	var buckets []bk
	var snap HistogramSnapshot
	found := false
	for _, s := range samples {
		switch s.Name {
		case name + "_bucket":
			le := s.Labels["le"]
			if le == "+Inf" {
				snap.Total = uint64(s.Value)
				found = true
				continue
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			buckets = append(buckets, bk{b, uint64(s.Value)})
			found = true
		case name + "_sum":
			snap.Sum = s.Value
			found = true
		}
	}
	if !found {
		return HistogramSnapshot{}, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	prev := uint64(0)
	for _, b := range buckets {
		snap.Bounds = append(snap.Bounds, b.le)
		snap.Counts = append(snap.Counts, b.cum-prev)
		prev = b.cum
	}
	snap.Counts = append(snap.Counts, snap.Total-prev) // +Inf bucket
	return snap, true
}
