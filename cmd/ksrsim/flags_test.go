package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// commands returns every registry entry that runs as a ksrsim command.
func commands(t *testing.T) []experiments.Runner {
	t.Helper()
	var rs []experiments.Runner
	for _, name := range experiments.Experiments() {
		if r, ok := experimentCommand(name); ok {
			rs = append(rs, r)
		}
	}
	if len(rs) < 18 {
		t.Fatalf("only %d experiment commands", len(rs))
	}
	return rs
}

// parseCommand parses args with the flag set of experiment name, as
// `ksrsim name args...` does, and returns the canonical config.
func parseCommand(name string, args []string) ([]byte, error) {
	r, ok := experimentCommand(name)
	if !ok {
		return nil, fmt.Errorf("%q is not an experiment command", name)
	}
	fs, cfg, _, err := experimentFlags(r, flag.ContinueOnError)
	if err != nil {
		return nil, err
	}
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return r.CanonicalConfig(cfg)
}

// TestExperimentFlagsAreConfigFields checks that each experiment command
// has exactly one flag per JSON-visible config field and no other flag
// but -plot, and that without flags it runs the config an empty job spec
// decodes to.
func TestExperimentFlagsAreConfigFields(t *testing.T) {
	for _, r := range commands(t) {
		fs, cfg, _, err := experimentFlags(r, flag.ContinueOnError)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		canon, err := r.CanonicalConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := r.DecodeConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := r.CanonicalConfig(spec); !bytes.Equal(canon, want) {
			t.Errorf("%s: no flags give %s, an empty spec %s", r.Name, canon, want)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(canon, &fields); err != nil {
			t.Fatal(err)
		}
		bound := map[uintptr]bool{}
		flags := 0
		fs.VisitAll(func(f *flag.Flag) {
			if f.Name == "plot" {
				return
			}
			flags++
			bound[f.Value.(fieldValue).v.Addr().Pointer()] = true
		})
		if flags != len(fields) {
			t.Errorf("%s: %d flags for %d config fields", r.Name, flags, len(fields))
		}
		v := reflect.ValueOf(cfg).Elem()
		for name := range fields {
			if !bound[v.FieldByName(name).Addr().Pointer()] {
				t.Errorf("%s: config field %s has no flag", r.Name, name)
			}
		}
		if (fs.Lookup("plot") != nil) != (charts[r.Name] != nil) {
			t.Errorf("%s: -plot without a chart, or a chart without -plot", r.Name)
		}
	}
}

// TestInvocationsMatchSpecs pairs each CLI invocation that CI or the
// docs compare with a job spec: both must canonicalize to the same bytes,
// and so to the same cache key.
func TestInvocationsMatchSpecs(t *testing.T) {
	fig5, err := json.Marshal(experiments.KSR2BarriersConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ where, experiment, args, spec string }{
		{"CI daemon-smoke, docs/SERVER.md", "latency", "-cells 4 -region 32768 -procs 1,2", `{"Cells":4,"RegionBytes":32768,"Procs":[1,2]}`},
		{"CI chaos-smoke", "latency", "-cells 8 -region 16384 -procs 1,2", `{"Cells":8,"RegionBytes":16384,"Procs":[1,2]}`},
		{"CI daemon-smoke", "ep", "-machine ksr2 -cells 4 -procs 1,2 -logpairs 10", `{"Machine":"ksr2","Cells":4,"Procs":[1,2],"LogPairs":10}`},
		{"EXPERIMENTS.md", "latency", "-cells 16 -procs 1,2,4,8,16", `{"Cells": 16, "Procs": [1, 2, 4, 8, 16]}`},
		{"EXPERIMENTS.md E4", "barriers", "-machine ksr2 -cells 64 -procs 16,20,24,28,32,40,48,56,64", string(fig5)},
		{"docs/SERVER.md", "cg", "-poststore -procs 16,32", `{"Poststore":true,"Procs":[16,32]}`},
		{"docs/FAULTS.md", "faults", "-rates 0.01 -seed 1 -checked", `{"Rates":[0.01],"Seed":1,"Checked":true}`},
	} {
		got, err := parseCommand(tc.experiment, strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%s: ksrsim %s %s: %v", tc.where, tc.experiment, tc.args, err)
		}
		r, _ := experiments.LookupExperiment(tc.experiment)
		cfg, err := r.DecodeConfig([]byte(tc.spec))
		if err != nil {
			t.Fatalf("%s: spec %s: %v", tc.where, tc.spec, err)
		}
		want, err := r.CanonicalConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: ksrsim %s %s gives %s, the spec %s", tc.where, tc.experiment, tc.args, got, want)
		}
	}
}

// TestFlagSyntax pins how a flag spells each field kind the binder
// supports, and that it refuses a field it cannot parse rather than
// skipping it.
func TestFlagSyntax(t *testing.T) {
	var cfg struct {
		Machine experiments.MachineKind
		Procs   []int
		Rates   []float64 `flag:"r"`
		Algos   []string
		Seed    uint64
		Bytes   int64
		Checked bool
		Obs     *int `json:"-"`
	}
	cfg.Procs = []int{9}
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := bindConfig(fs, &cfg); err != nil {
		t.Fatal(err)
	}
	if got := fs.Lookup("procs").DefValue; got != "9" {
		t.Errorf("default of -procs = %q, want 9", got)
	}
	args := []string{"-machine", "ksr2", "-procs", "1, 2,8", "-r", "0.5,1e-3", "-algos", "mcs,tree(M)",
		"-seed", "7", "-bytes", "0x10", "-checked"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if cfg.Machine != "ksr2" || !reflect.DeepEqual(cfg.Procs, []int{1, 2, 8}) ||
		!reflect.DeepEqual(cfg.Rates, []float64{0.5, 0.001}) || !reflect.DeepEqual(cfg.Algos, []string{"mcs", "tree(M)"}) ||
		cfg.Seed != 7 || cfg.Bytes != 16 || !cfg.Checked {
		t.Errorf("parsed %+v", cfg)
	}
	if err := fs.Parse([]string{"-procs", ""}); err != nil || cfg.Procs != nil {
		t.Errorf("empty list: procs %v, err %v", cfg.Procs, err)
	}
	for _, bad := range [][]string{{"-procs", "1,x"}, {"-seed", "-1"}, {"-checked=maybe"}, {"-obs", "1"}} {
		if err := fs.Parse(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}

	var unsupported struct{ Knobs map[string]int }
	if err := bindConfig(flag.NewFlagSet("probe", flag.ContinueOnError), &unsupported); err == nil {
		t.Error("a map field was bound, or silently skipped")
	}
	var clash struct {
		Ops   int
		Other int `flag:"ops"`
	}
	if err := bindConfig(flag.NewFlagSet("probe", flag.ContinueOnError), &clash); err == nil {
		t.Error("two fields bound to one flag")
	}
}

// TestDocumentedInvocationsParse parses every `ksrsim <experiment> ...`
// command line in the documentation with the command's flag set, so a
// renamed or removed flag cannot leave a doc that no longer runs.
func TestDocumentedInvocationsParse(t *testing.T) {
	files, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "../../README.md", "../../EXPERIMENTS.md", "../../DESIGN.md")
	n := 0
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range docLines(string(b)) {
			for _, words := range invocations(line) {
				n++
				if _, err := parseCommand(words[0], words[1:]); err != nil {
					t.Errorf("%s: ksrsim %s: %v", filepath.Base(file), strings.Join(words, " "), err)
				}
			}
		}
	}
	if n < 40 {
		t.Errorf("found only %d documented invocations", n)
	}
}

// docLines splits markdown into logical lines: a shell line continued
// with a backslash, or an inline code span broken across lines, is
// joined with the lines that finish it.
func docLines(text string) []string {
	var out []string
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		for i+1 < len(lines) && (strings.HasSuffix(l, `\`) ||
			!strings.HasPrefix(strings.TrimSpace(l), "```") && strings.Count(l, "`")%2 == 1) {
			i++
			l = strings.TrimSuffix(l, `\`) + " " + lines[i]
		}
		out = append(out, l)
	}
	return out
}

// invocations returns the experiment and arguments of each
// `ksrsim <experiment> ...` command line in line. Global flags before the
// experiment are skipped; the command line ends at a backtick, a shell
// operator or a comment, and quotes are removed from each word.
func invocations(line string) [][]string {
	var out [][]string
	for _, seg := range strings.Split(line, "ksrsim ")[1:] {
		var words []string
		for _, w := range strings.Fields(strings.SplitN(seg, "`", 2)[0]) {
			if strings.ContainsAny(w[:1], "#|;&<>") {
				break
			}
			words = append(words, strings.Trim(w, `"'`))
		}
		for len(words) > 0 && strings.HasPrefix(words[0], "-") {
			n := 2
			if words[0] == "-json" || strings.Contains(words[0], "=") {
				n = 1
			}
			words = words[min(n, len(words)):]
		}
		if len(words) > 0 {
			if _, ok := experimentCommand(words[0]); ok {
				out = append(out, words)
			}
		}
	}
	return out
}
