package obs

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TimeSeries is one machine's sampled telemetry: a fixed column set and
// one row per sampling tick of simulated time. The machine layer decides
// the columns (ring transactions and occupancy, outstanding misses,
// directory occupancy, and so on) and records a row every SampleEvery of
// simulated time.
type TimeSeries struct {
	Columns []string
	Times   []sim.Time
	Rows    [][]float64

	// onRecord, when set, is called once per recorded row. The session
	// uses it to keep a race-free sample counter for live progress
	// streaming; it must not touch the series itself.
	onRecord func()
}

// Record appends one sample row (copied) at simulated time at.
func (t *TimeSeries) Record(at sim.Time, row []float64) {
	t.Times = append(t.Times, at)
	t.Rows = append(t.Rows, append([]float64(nil), row...))
	if t.onRecord != nil {
		t.onRecord()
	}
}

// Len returns the number of recorded samples.
func (t *TimeSeries) Len() int {
	if t == nil {
		return 0
	}
	return len(t.Times)
}

// column extracts one column as a dense slice.
func (t *TimeSeries) column(j int) []float64 {
	out := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		if j < len(row) {
			out[i] = row[j]
		}
	}
	return out
}

// fmtSample formats a telemetry value compactly and deterministically:
// integers without a decimal point, everything else with %g.
func fmtSample(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// TelemetryCSV renders every recorder's samples as one CSV document:
// label,t_ns,<columns...>, one row per sample, recorders in label order.
func (s *Session) TelemetryCSV() []byte {
	var b bytes.Buffer
	wroteHeader := false
	for _, r := range s.sorted() {
		ts := r.series
		if ts.Len() == 0 {
			continue
		}
		if !wroteHeader {
			b.WriteString("label,t_ns")
			for _, c := range ts.Columns {
				b.WriteByte(',')
				b.WriteString(c)
			}
			b.WriteByte('\n')
			wroteHeader = true
		}
		for i := range ts.Times {
			b.WriteString(r.label)
			b.WriteByte(',')
			b.WriteString(strconv.FormatInt(int64(ts.Times[i]), 10))
			for _, v := range ts.Rows[i] {
				b.WriteByte(',')
				b.WriteString(fmtSample(v))
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// RenderTelemetry renders each recorder's sampled columns as ASCII
// sparklines (one line per column, annotated with the min..max range),
// suitable for dumping to stderr at the end of a traced run.
func (s *Session) RenderTelemetry(width int) string {
	var b bytes.Buffer
	for _, r := range s.sorted() {
		ts := r.series
		if ts.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "telemetry %s (%d samples, every %v):\n", r.label, ts.Len(), r.sampleEvery)
		for j, col := range ts.Columns {
			vals := ts.column(j)
			min, max := vals[0], vals[0]
			for _, v := range vals {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
			fmt.Fprintf(&b, "  %-14s [%s .. %s] %s\n", col, fmtSample(min), fmtSample(max), metrics.Sparkline(vals, width))
		}
	}
	return b.String()
}
