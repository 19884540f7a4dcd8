// Package analysistest runs a ksrlint analyzer over fixture packages
// and checks its diagnostics against `// want` expectations, in the
// shape of golang.org/x/tools/go/analysis/analysistest:
//
//	x := time.Now() // want `wall clock`
//
// Each `// want` comment carries one or more quoted or backquoted
// regular expressions; every diagnostic on that line must be matched by
// one of them, and every expectation must match a diagnostic. Fixtures
// live under <testdata>/src/<importpath>/ and may import each other
// (resolved from the same tree) or the standard library (resolved from
// source). //lint:ignore directives are honored, so fixtures also prove
// the suppression path.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/facts"
	"repro/internal/lint/ignore"
	"repro/internal/lint/load"
)

// Run loads each fixture package below dir/src and applies a, reporting
// any mismatch between diagnostics and `// want` expectations on t.
// Packages are analyzed in the order given, against a fact store shared
// across the whole run: before a package is analyzed, the facts of every
// fixture package it imports are built first, the same
// deps-before-dependents discipline the real drivers follow, so
// cross-package expectations behave like the standalone driver. The
// fixture packages loaded by the run stand for the whole module, so
// Pass.Referenced holds every object their non-test files refer to.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	imp := newFixtureImporter(dir)
	var pkgs []*fixturePkg
	for _, path := range pkgPaths {
		fp, err := imp.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, fp)
	}
	referenced := map[types.Object]bool{}
	for _, fp := range imp.pkgs {
		analysis.AddReferences(referenced, imp.fset, fp.files, fp.info)
	}
	for i, fp := range pkgs {
		imp.addFacts(fp)
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       imp.fset,
			Files:      fp.files,
			Pkg:        fp.pkg,
			TypesInfo:  fp.info,
			Facts:      imp.store,
			Referenced: referenced,
		}
		var diags []analysis.Diagnostic
		pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkgPaths[i], err)
		}
		diags = ignore.Filter(imp.fset, fp.files, a.Name, diags)
		check(t, imp.fset, a, pkgPaths[i], fp.files, diags)
	}
}

// RunIgnoreAudit checks the malformed-//lint:ignore audit against want
// expectations: every ignore.Parse finding in the fixture packages must
// be matched by a `// want` comment on its line, and vice versa.
func RunIgnoreAudit(t *testing.T, dir string, pkgPaths ...string) {
	t.Helper()
	imp := newFixtureImporter(dir)
	audit := &analysis.Analyzer{Name: "ignore", Doc: "malformed suppression audit"}
	for _, path := range pkgPaths {
		fp, err := imp.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		var diags []analysis.Diagnostic
		_, malformed := ignore.Parse(imp.fset, fp.files)
		for _, m := range malformed {
			diags = append(diags, analysis.Diagnostic{Pos: m.Pos, Message: m.Message})
		}
		check(t, imp.fset, audit, path, fp.files, diags)
	}
}

// fixturePkg is one loaded fixture package.
type fixturePkg struct {
	files     []*ast.File
	pkg       *types.Package
	info      *types.Info
	factsDone bool // its summaries are in the store
}

// fixtureImporter resolves fixture-tree imports itself and defers
// everything else to the source importer. addFacts folds a loaded
// package's interprocedural summaries into store after those of the
// fixture packages it imports.
type fixtureImporter struct {
	fset  *token.FileSet
	root  string
	std   types.Importer
	pkgs  map[string]*fixturePkg
	store *facts.Store
}

func newFixtureImporter(dir string) *fixtureImporter {
	fset := token.NewFileSet()
	return &fixtureImporter{
		fset:  fset,
		root:  filepath.Join(dir, "src"),
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  make(map[string]*fixturePkg),
		store: facts.NewStore(),
	}
}

func (im *fixtureImporter) addFacts(fp *fixturePkg) {
	if fp.factsDone {
		return
	}
	fp.factsDone = true
	for _, dep := range fp.pkg.Imports() {
		if d, ok := im.pkgs[dep.Path()]; ok {
			im.addFacts(d)
		}
	}
	im.store.Add(facts.BuildPackage(im.fset, fp.files, fp.info, im.store))
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(im.root, path); isDir(dir) {
		fp, err := im.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	return im.std.Import(path)
}

func (im *fixtureImporter) load(path string) (*fixturePkg, error) {
	if fp, ok := im.pkgs[path]; ok {
		return fp, nil
	}
	dir := filepath.Join(im.root, path)
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, de.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := load.Check(im.fset, path, files, im)
	if err != nil {
		return nil, err
	}
	fp := &fixturePkg{files: files, pkg: pkg, info: info}
	im.pkgs[path] = fp
	return fp, nil
}

// expectation is one `// want` pattern, keyed by file:line.
type expectation struct {
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// check compares diagnostics with the fixtures' want comments.
func check(t *testing.T, fset *token.FileSet, a *analysis.Analyzer, pkgPath string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	want := make(map[key][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range parsePatterns(t, pos, c.Text[i+len("// want "):]) {
					rx, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, raw, err)
					}
					want[key{pos.Filename, pos.Line}] = append(
						want[key{pos.Filename, pos.Line}], &expectation{rx: rx, raw: raw})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		exps := want[key{pos.Filename, pos.Line}]
		found := false
		for _, e := range exps {
			if !e.matched && e.rx.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected %s diagnostic: %s", pos, a.Name, d.Message)
		}
	}
	for k, exps := range want {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s:%d: expected %s diagnostic matching %q, got none", k.file, k.line, a.Name, e.raw)
			}
		}
	}
}

// parsePatterns extracts the quoted/backquoted regexps from the tail of
// a want comment.
func parsePatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s: malformed want comment tail %q", pos, s)
		}
		unq, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: malformed want pattern %q", pos, q)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[len(q):])
	}
	return out
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}
