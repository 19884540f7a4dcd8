// Package metrics implements the scalability measures the paper reports
// for every kernel table: speedup, efficiency, and the Karp-Flatt
// experimentally determined serial fraction [12], plus small helpers for
// rendering the tables and figure series the experiment harness emits.
package metrics

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Point is one row of a scalability table.
type Point struct {
	Procs   int
	Elapsed sim.Time
}

// Speedup returns T(1)/T(p).
func Speedup(t1, tp sim.Time) float64 {
	if tp == 0 {
		return 0
	}
	return float64(t1) / float64(tp)
}

// SerialFraction returns the Karp-Flatt metric
//
//	f = (1/S - 1/p) / (1 - 1/p)
//
// which the paper tabulates for CG and IS: a serial fraction that grows
// with p exposes a scaling bottleneck (algorithmic or architectural) that
// raw speedup hides.
func SerialFraction(t1, tp sim.Time, p int) float64 {
	if p <= 1 {
		return 0
	}
	s := Speedup(t1, tp)
	if s == 0 {
		return 0
	}
	return (1/s - 1/float64(p)) / (1 - 1/float64(p))
}

// Superunitary reports whether the speedup from pa to pb processors
// exceeds the processor ratio — the effect the paper observes for CG
// between 4 and 16 processors when the working set starts fitting in the
// local caches [9].
func Superunitary(ta, tb sim.Time, pa, pb int) bool {
	if ta == 0 || tb == 0 || pa == 0 {
		return false
	}
	return (float64(ta)/float64(tb))*float64(pa) > float64(pb)
}

// Row is one formatted scalability-table row.
type Row struct {
	Procs          int
	Elapsed        sim.Time
	Speedup        float64
	Efficiency     float64
	SerialFraction float64
}

// BuildRows derives the full table from raw points; the first point is
// the baseline (it need not be p=1, but for the paper's tables it is).
func BuildRows(points []Point) []Row {
	if len(points) == 0 {
		return nil
	}
	t1 := points[0].Elapsed
	base := points[0].Procs
	rows := make([]Row, 0, len(points))
	for _, pt := range points {
		r := Row{
			Procs:   pt.Procs,
			Elapsed: pt.Elapsed,
			Speedup: Speedup(t1, pt.Elapsed) * float64(base),
		}
		if pt.Procs > base {
			r.Efficiency = r.Speedup / float64(pt.Procs)
			r.SerialFraction = SerialFraction(t1, pt.Elapsed, pt.Procs)
		}
		rows = append(rows, r)
	}
	return rows
}

// Table renders rows in the layout of the paper's Tables 1 and 2.
func Table(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%10s %16s %10s %11s %15s\n",
		"Processors", "Time (s)", "Speedup", "Efficiency", "Serial Fraction")
	for _, r := range rows {
		eff, sf := "-", "-"
		if r.Efficiency != 0 {
			eff = fmt.Sprintf("%.3f", r.Efficiency)
		}
		if r.SerialFraction != 0 {
			sf = fmt.Sprintf("%.6f", r.SerialFraction)
		}
		fmt.Fprintf(&b, "%10d %16.5f %10.5f %11s %15s\n",
			r.Procs, r.Elapsed.Seconds(), r.Speedup, eff, sf)
	}
	return b.String()
}

// Series is one labelled curve of a figure (time or speedup vs
// processors).
type Series struct {
	Label  string
	Procs  []int
	Values []float64
}

// Figure renders a set of curves as aligned columns (one row per
// processor count), the textual analogue of the paper's figures.
func Figure(title, unit string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (values in %s)\n", title, unit)
	if len(series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%6s", "procs")
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	b.WriteByte('\n')
	for i, p := range series[0].Procs {
		fmt.Fprintf(&b, "%6d", p)
		for _, s := range series {
			if i < len(s.Values) {
				fmt.Fprintf(&b, " %14.6g", s.Values[i])
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
