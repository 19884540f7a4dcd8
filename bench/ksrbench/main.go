// Command ksrbench is the repository's benchmark: four seeded workloads
// that drive ksrsim's layers from outside, through their public
// functions, check that every output is correct, and print end-to-end
// and per-layer metrics.
//
//	ksrbench -workload sync|memory|bigring|service|all -seed N -seconds S -trace 0|1
//	ksrbench compare A.jsonl B.jsonl
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced
// run (-trace 1) prints the per-layer metrics and writes the spans file.
// The last line of standard output is always one JSON object with the
// keys correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// tiny shrinks every workload to a smoke-test size; no golden digest
	// applies to it.
	tiny bool
}

// workloads in the order -workload all runs them.
var workloads = []struct {
	name string
	run  func(options) *outcome
}{
	{"sync", syncWorkload.run},
	{"memory", memoryWorkload.run},
	{"bigring", bigringWorkload.run},
	{"service", runService},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ksrbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: sync, memory, bigring, service, or all")
	seed := fs.Uint64("seed", golden.DefaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "seconds each workload measures for")
	trace := fs.Int("trace", 0, "1 runs traced: per-layer metrics and a spans file")
	spans := fs.String("spans", ".bench_build/spans.json", "where a traced run writes its spans")
	tiny := fs.Bool("tiny", false, "smoke-test sizes (no golden digests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "ksrbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ksrbench: -seconds must be positive")
		return 2
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		tiny:    *tiny,
	}
	var outs []*outcome
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			out := w.run(o)
			outs = append(outs, out)
			printReport(stdout, o, out)
		}
	}
	if len(outs) == 0 {
		fmt.Fprintf(os.Stderr, "ksrbench: unknown workload %q\n", *name)
		return 2
	}
	if o.trace {
		var files []spanFile
		for _, out := range outs {
			if out.spans != nil {
				files = append(files, *out.spans)
			}
		}
		if err := writeSpans(*spans, files); err != nil {
			fmt.Fprintf(os.Stderr, "ksrbench: spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", *spans)
	}
	res := combine(o, outs)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ksrbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// resultOf renders one workload's outcome as the result object.
func resultOf(o options, out *outcome) result {
	r := result{Attempted: out.attempted, Failed: out.failed}
	r.Correct = out.failed == 0 && out.attempted > 0
	if o.trace {
		r.Metrics = pick(perLayer, out.perLayer)
	} else {
		r.Metrics = pick(endToEnd, out.e2e)
	}
	return r
}

// combine is the run's last line. For one workload it is that
// workload's result; for several, metric names gain a "<workload>/"
// prefix.
func combine(o options, outs []*outcome) result {
	if len(outs) == 1 {
		return resultOf(o, outs[0])
	}
	all := result{Correct: true, Metrics: make(map[string]metric)}
	for _, out := range outs {
		r := resultOf(o, out)
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[out.name+"/"+k] = v
		}
	}
	return all
}

// printReport writes one workload's human-readable report and its JSON
// result line.
func printReport(w io.Writer, o options, out *outcome) {
	fmt.Fprintf(w, "== %s (seed %d) ==\n", out.name, o.seed)
	fmt.Fprintf(w, "digest %s  golden: %s\n", out.digest, out.golden)
	fmt.Fprintf(w, "attempted %d  failed %d\n", out.attempted, out.failed)
	for _, e := range out.errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	r := resultOf(o, out)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
}
