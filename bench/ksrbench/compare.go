package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements `ksrbench compare A B`. A holds the parent's
// runs and B the change's, one result line per run (the last line a run
// prints); line i of A and line i of B form pair i, and the runs should
// have alternated which side went first. For every (metric, workload)
// it applies the paired-runs rule: the change is
// better when it wins at least nine tenths of the pairs (ties count for
// neither) and the medians differ by more than the parent's
// interquartile distance; worse when its median is worse than the
// parent's by more than the metric's bound; unresolved when the
// parent's own spread exceeds the bound (unless every change run beats
// every parent run); otherwise unchanged. It exits 1 when any row is
// worse.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("ksrbench compare", flag.ContinueOnError)
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: ksrbench compare [-benchmark BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	def, err := readBenchDef(*spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ksrbench compare: %v\n", err)
		return 2
	}
	a, err := readRuns(fs.Arg(0))
	if err == nil {
		var b []result
		if b, err = readRuns(fs.Arg(1)); err == nil {
			return writeComparison(w, def, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "ksrbench compare: %v\n", err)
	return 2
}

func readBenchDef(path string) (benchDef, error) {
	var d benchDef
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(b, &d)
}

// readRuns reads one result object per non-empty line.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// minPairs is the fewest pairs the rule accepts.
const minPairs = 10

// verdict classifies one (metric, workload) from paired samples a
// (parent) and b (change). lower says smaller values are better.
func verdict(a, b []float64, lower bool, bound float64) (string, int) {
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	medA, medB := median(a), median(b)
	q1, q3 := quartiles(a)
	switch {
	case better(medB, medA) && 10*wins >= 9*len(a) && math.Abs(medB-medA) > q3-q1:
		return "better", wins
	case worseBy(medB, medA, lower) > bound:
		return "worse", wins
	case relIQR(a) > bound:
		if better(extreme(b, lower, false), extreme(a, lower, true)) {
			return "better", wins // every change run beats every parent run
		}
		return "unresolved", wins
	}
	return "unchanged", wins
}

// worseBy is how much worse x is than ref, as a share of ref.
func worseBy(x, ref float64, lower bool) float64 {
	if ref == 0 {
		return 0
	}
	d := (x - ref) / math.Abs(ref)
	if !lower {
		d = -d
	}
	return d
}

// extreme returns xs's best value (best=true) or its worst.
func extreme(xs []float64, lower, best bool) float64 {
	s := sortedCopy(xs)
	if lower == best {
		return s[0]
	}
	return s[len(s)-1]
}

func writeComparison(w io.Writer, def benchDef, a, b []result) int {
	pairs := min(len(a), len(b))
	if pairs < minPairs {
		fmt.Fprintf(os.Stderr, "ksrbench compare: %d pairs; the rule needs at least %d\n", pairs, minPairs)
		return 2
	}
	a, b = a[:pairs], b[:pairs]
	failed := func(rs []result) (n int) {
		for _, r := range rs {
			if !r.Correct || r.Failed > 0 {
				n++
			}
		}
		return n
	}
	fmt.Fprintf(w, "%d pairs; runs with failures: parent %d, change %d\n", pairs, failed(a), failed(b))
	fmt.Fprintf(w, "%-10s %-18s %12s %12s %8s %6s %7s %6s  %s\n",
		"workload", "metric", "parent p50", "change p50", "change", "wins", "spread", "bound", "verdict")
	var keys []string
	for k := range a[0].Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rc := 0
	for _, key := range keys {
		workload, name := "-", key
		if i := strings.LastIndexByte(key, '/'); i >= 0 {
			workload, name = key[:i], key[i+1:]
		}
		for _, d := range def.EndToEnd {
			if d.Name != name {
				continue
			}
			va, vb := make([]float64, pairs), make([]float64, pairs)
			for i := range a {
				va[i], vb[i] = a[i].Metrics[key].Value, b[i].Metrics[key].Value
			}
			v, wins := verdict(va, vb, d.Better == "lower", d.Bound)
			if v == "worse" {
				rc = 1
			}
			fmt.Fprintf(w, "%-10s %-18s %12.5g %12.5g %+7.1f%% %3d/%-2d %7.3f %6.2f  %s\n",
				workload, name, median(va), median(vb), 100*(median(vb)/median(va)-1),
				wins, pairs, relIQR(va), d.Bound, v)
		}
	}
	if failed(b) > failed(a) {
		fmt.Fprintln(w, "the change has more runs with failures than the parent: no gain counts")
	}
	return rc
}
