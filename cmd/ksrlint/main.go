// ksrlint machine-checks the repro tree's simulation invariants: byte-
// identical determinism, the zero-overhead hook contract, the
// sim-process discipline, canonical/strict JSON on cache-key paths, and
// no exported internal/ API that only tests call.
// See docs/LINT.md for the invariant catalog.
//
// Two modes share the same analyzers:
//
//	ksrlint [flags] [packages]   standalone; loads packages itself
//	go vet -vettool=$(which ksrlint) ./...
//
// The second form speaks the go vet unit-checking protocol (see
// unit.go), so CI runs the suite with vet's caching and package graph.
// Findings are suppressed with `//lint:ignore ksrlint/<name> reason`.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analyzers/all"
	"repro/internal/lint/facts"
	"repro/internal/lint/ignore"
	"repro/internal/lint/load"
)

var (
	jsonOut = flag.Bool("json", false, "emit diagnostics as JSON")
	list    = flag.Bool("list", false, "list analyzers and exit")
	enabled = map[string]*bool{}
)

func main() {
	// -V=full is the go command's tool-identity probe; answer it before
	// normal flag parsing so vet can compute a cache ID for the tool.
	// The required shape is "name version devel ... buildID=<id>"; the
	// id is a hash of this executable, so rebuilding ksrlint invalidates
	// vet's cached results.
	for _, arg := range os.Args[1:] {
		if strings.HasPrefix(arg, "-V") {
			fmt.Printf("%s version devel buildID=%s\n", progName(), selfHash())
			return
		}
	}
	for _, a := range all.Analyzers {
		enabled[a.Name] = flag.Bool(a.Name, true, "run the "+a.Name+" analyzer")
	}
	flagsMode := flag.Bool("flags", false, "describe flags in JSON (go vet protocol)")
	flag.Parse()

	if *flagsMode {
		printFlags()
		return
	}
	if *list {
		for _, a := range all.Analyzers {
			fmt.Printf("ksrlint/%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitCheck(args[0], analyzers()))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standalone(args))
}

func progName() string {
	name := os.Args[0]
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return strings.TrimSuffix(name, ".exe")
}

// selfHash fingerprints the running binary for the -V=full answer.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// analyzers returns the enabled subset of the suite.
func analyzers() []*analysis.Analyzer {
	var as []*analysis.Analyzer
	for _, a := range all.Analyzers {
		if on, ok := enabled[a.Name]; !ok || *on {
			as = append(as, a)
		}
	}
	return as
}

// finding is one printable diagnostic.
type finding struct {
	pkg  string
	pos  token.Position
	name string
	msg  string
}

// sortFindings orders diagnostics by (package, file, line, column,
// analyzer) so the text and -json outputs are byte-stable regardless
// of package-load or analyzer-execution order.
func sortFindings(findings []finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.name < b.name
	})
}

// standalone loads the named packages (plus in-module dependencies for
// interprocedural facts) and runs the suite, printing findings as
// file:line:col: ksrlint/<name>: message. Exit status: 0 clean, 1
// load/internal error, 2 findings.
func standalone(patterns []string) int {
	fset := token.NewFileSet()
	pkgs, err := load.PackagesWithDeps(fset, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksrlint:", err)
		return 1
	}
	// Which exported identifiers nothing references is only knowable
	// from the whole module; on a partial pattern deadapi stays silent.
	whole, err := load.CoversModule(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksrlint:", err)
		return 1
	}
	var referenced map[types.Object]bool
	if whole {
		referenced = map[types.Object]bool{}
		for _, pkg := range pkgs {
			analysis.AddReferences(referenced, fset, pkg.Files, pkg.Info)
		}
	}
	store := facts.NewStore()
	var findings []finding
	for _, pkg := range pkgs {
		// Dependencies come first in pkgs, so the store always holds a
		// callee's summaries before its caller is built.
		store.Add(facts.BuildPackage(fset, pkg.Files, pkg.Info, store))
		if pkg.DepOnly {
			continue
		}
		pass := &analysis.Pass{
			Fset:       fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			Facts:      store,
			Referenced: referenced,
		}
		for _, a := range analyzers() {
			var diags []analysis.Diagnostic
			pass.Analyzer = a
			pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "ksrlint: %s on %s: %v\n", a.Name, pkg.Path, err)
				return 1
			}
			diags = ignore.Filter(fset, pkg.Files, a.Name, diags)
			for _, d := range diags {
				findings = append(findings, finding{pkg.Path, fset.Position(d.Pos), "ksrlint/" + a.Name, d.Message})
			}
		}
		// A //lint:ignore that can never match anything is itself a
		// finding: it silently fails to suppress.
		_, malformed := ignore.Parse(fset, pkg.Files)
		for _, m := range malformed {
			findings = append(findings, finding{pkg.Path, fset.Position(m.Pos), "ksrlint/ignore", m.Message})
		}
	}
	sortFindings(findings)
	if *jsonOut {
		printJSON(findings)
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s: %s\n", f.pos, f.name, f.msg)
		}
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

func printJSON(findings []finding) {
	// Minimal stable JSON so CI can post-process findings.
	fmt.Print("[")
	for i, f := range findings {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Printf("\n  {\"package\": %q, \"pos\": %q, \"analyzer\": %q, \"message\": %q}", f.pkg, f.pos.String(), f.name, f.msg)
	}
	if len(findings) > 0 {
		fmt.Println()
	}
	fmt.Println("]")
}

// printFlags answers go vet's -flags probe: a JSON array describing
// the flags this tool accepts, so vet can validate pass-through flags.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var fs []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		isBool := false
		if bv, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
			isBool = bv.IsBoolFlag()
		}
		fs = append(fs, jsonFlag{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	fmt.Print("[")
	for i, f := range fs {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Printf("\n  {\"Name\": %q, \"Bool\": %v, \"Usage\": %q}", f.Name, f.Bool, f.Usage)
	}
	fmt.Println("\n]")
}
