package load_test

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint/load"
)

// writeModule lays out a throwaway module under a temp dir and chdirs
// into it: the loader shells out to `go list` and resolves imports with
// the source importer, both of which key off the working directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	return dir
}

func paths(pkgs []*load.Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.Path)
	}
	return out
}

// TestPackagesWithDepsOrderAndDepOnly loads a vendor-free module layout
// and checks the three properties the facts pipeline depends on:
// dependencies come before dependents, packages pulled in only as deps
// are marked DepOnly, and stdlib packages are not loaded at all.
func TestPackagesWithDepsOrderAndDepOnly(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod": "module example.test/m\n\ngo 1.24\n",
		"inner/inner.go": `package inner

import "strings"

func Upper(s string) string { return strings.ToUpper(s) }
`,
		"outer/outer.go": `package outer

import "example.test/m/inner"

func Shout(s string) string { return inner.Upper(s) + "!" }
`,
	})
	fset := token.NewFileSet()
	pkgs, err := load.PackagesWithDeps(fset, []string{"example.test/m/outer"})
	if err != nil {
		t.Fatal(err)
	}
	got := paths(pkgs)
	want := []string{"example.test/m/inner", "example.test/m/outer"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("loaded %v, want %v (deps first, stdlib skipped)", got, want)
	}
	if !pkgs[0].DepOnly {
		t.Error("inner was only reached as a dependency; want DepOnly=true")
	}
	if pkgs[1].DepOnly {
		t.Error("outer matched the pattern; want DepOnly=false")
	}
	if pkgs[1].Types.Scope().Lookup("Shout") == nil {
		t.Error("outer was not type-checked: Shout missing from package scope")
	}
}

// TestTestOnlyPackageSkipped checks that a package consisting solely of
// _test.go files is skipped rather than failing the whole load: go list
// reports it with no GoFiles, and ksrlint analyzes non-test sources.
func TestTestOnlyPackageSkipped(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod": "module example.test/m\n\ngo 1.24\n",
		"lib/lib.go": `package lib

func ID(n int) int { return n }
`,
		"testonly/only_test.go": `package testonly

import "testing"

func TestNothing(t *testing.T) {}
`,
	})
	fset := token.NewFileSet()
	pkgs, err := load.PackagesWithDeps(fset, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	got := paths(pkgs)
	if len(got) != 1 || got[0] != "example.test/m/lib" {
		t.Fatalf("loaded %v, want just example.test/m/lib", got)
	}
}

// TestBuildTagExclusion checks that a file behind an unsatisfied build
// constraint never reaches the type-checker: it may reference symbols
// that do not exist on this platform, and including it would fail the
// load of an otherwise healthy package.
func TestBuildTagExclusion(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod": "module example.test/m\n\ngo 1.24\n",
		"p/p.go": `package p

func Here() int { return 1 }
`,
		"p/excluded.go": `//go:build neverneverland

package p

func Excluded() int { return undefinedEverywhereElse }
`,
	})
	fset := token.NewFileSet()
	pkgs, err := load.PackagesWithDeps(fset, []string{"example.test/m/p"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	scope := pkgs[0].Types.Scope()
	if scope.Lookup("Here") == nil {
		t.Error("Here missing: the unconstrained file was not loaded")
	}
	if scope.Lookup("Excluded") != nil {
		t.Error("Excluded present: the build-tag-excluded file was type-checked")
	}
	if len(pkgs[0].Files) != 1 {
		t.Errorf("parsed %d files, want 1 (excluded.go must not be parsed)", len(pkgs[0].Files))
	}
}

// TestCoversModule checks the whole-module test that gates deadapi: a
// pattern naming one package of two does not cover the module, ./...
// does, and a package with only test files need not be loaded.
func TestCoversModule(t *testing.T) {
	writeModule(t, map[string]string{
		"go.mod":      "module example.test/m\n\ngo 1.24\n",
		"a/a.go":      "package a\n\nfunc A() int { return 1 }\n",
		"b/b.go":      "package b\n\nfunc B() int { return 2 }\n",
		"t/t_test.go": "package t\n",
	})
	for _, tc := range []struct {
		pattern string
		want    bool
	}{{"example.test/m/a", false}, {"./...", true}} {
		pkgs, err := load.PackagesWithDeps(token.NewFileSet(), []string{tc.pattern})
		if err != nil {
			t.Fatal(err)
		}
		got, err := load.CoversModule(pkgs)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("CoversModule after loading %s = %v, want %v", tc.pattern, got, tc.want)
		}
	}
}
