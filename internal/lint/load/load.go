// Package load type-checks Go packages for ksrlint's standalone driver
// without golang.org/x/tools/go/packages: it enumerates packages with
// `go list -json`, parses their non-test sources, and type-checks them
// in dependency order, resolving module-local imports to the packages
// it has already checked and the standard library with the source
// importer (so no export data or network is needed). It must run with
// the working directory inside the target module.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package. DepOnly marks packages
// pulled in only as dependencies of the requested patterns: drivers
// build facts for them but do not report diagnostics in them.
type Package struct {
	Path    string
	Name    string
	Dir     string
	DepOnly bool
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// PackagesWithDeps loads the packages matching patterns (as `go list`
// interprets them) plus their in-module dependencies (standard-library
// packages are classified by ksrlint's assumption tables, not loaded).
// `go list -deps` emits dependencies before dependents, and that order
// is preserved, so a caller folding facts package-by-package always has
// a callee's facts before reaching its caller. Each package is
// type-checked once: its dependents import the same *types.Package, so
// an object means one thing across the whole set.
func PackagesWithDeps(fset *token.FileSet, patterns []string) ([]*Package, error) {
	out, err := goCmd(append([]string{"list", "-deps", "-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var metas []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json output: %v", err)
		}
		metas = append(metas, p)
	}

	imp := &moduleImporter{std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	var pkgs []*Package
	for _, m := range metas {
		if m.Standard {
			continue // stdlib: classified by assumption tables
		}
		if m.Error != nil {
			return nil, fmt.Errorf("package %s: %s", m.ImportPath, m.Error.Err)
		}
		if len(m.GoFiles) == 0 {
			continue // test-only or empty package
		}
		var files []*ast.File
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := Check(fset, m.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", m.ImportPath, err)
		}
		imp.pkgs[m.ImportPath] = pkg
		pkgs = append(pkgs, &Package{
			Path:    m.ImportPath,
			Name:    m.Name,
			Dir:     m.Dir,
			DepOnly: m.DepOnly,
			Files:   files,
			Types:   pkg,
			Info:    info,
		})
	}
	return pkgs, nil
}

// CoversModule reports whether pkgs holds every package of the main
// module that has non-test Go files: only then can a driver tell which
// of the module's identifiers nothing references.
func CoversModule(pkgs []*Package) (bool, error) {
	mod, err := goCmd("list", "-m")
	if err != nil {
		return false, err
	}
	out, err := goCmd("list", "-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", strings.TrimSpace(string(mod))+"/...")
	if err != nil {
		return false, err
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.Path] = true
	}
	for _, path := range strings.Fields(string(out)) {
		if !loaded[path] {
			return false, nil
		}
	}
	return true, nil
}

func goCmd(args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out, nil
}

// moduleImporter resolves the packages the loader has already checked
// to those packages, and everything else (the standard library) from
// source.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// Check type-checks one package's parsed files with the given importer
// and returns the package plus a fully populated types.Info.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
