// Package analysis is a minimal, dependency-free core for ksrlint in
// the shape of golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The
// x/tools module is deliberately not imported — the repro module is
// self-contained — so this package carries just the subset the ksrlint
// analyzers need: per-package runs, position-addressed diagnostics, and
// an ancestor-tracking AST walker.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/lint/facts"
)

// Analyzer describes one ksrlint check.
type Analyzer struct {
	// Name is the short analyzer name ("determinism"); diagnostics are
	// reported and suppressed under "ksrlint/<Name>".
	Name string
	// Doc is a one-paragraph description shown by `ksrlint -list`.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Facts holds interprocedural summaries for this package and every
	// in-module package it imports (transitively); drivers populate it
	// before running analyzers. May be nil for analyzers that never read
	// facts, so consumers go through the nil-safe Store methods.
	Facts *facts.Store

	// Referenced holds every object that a non-test file of the module
	// refers to, keyed by origin (see AddReferences). Only a driver that
	// loaded the whole module can know it; on any other run, the go vet
	// driver's included, it is nil.
	Referenced map[types.Object]bool
}

// FactsLookup adapts the pass's fact store to the scanner's Lookup
// signature; safe to call when Facts is nil.
func (p *Pass) FactsLookup() facts.Lookup {
	return func(obj types.Object) *facts.Summary { return p.Facts.Lookup(obj) }
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// HasAnySegment reports whether any "/"-separated segment of the
// package import path is one of segs. Analyzers scope themselves by
// path segment ("internal/sim" and a test fixture rooted at "sim" both
// match "sim"), so fixtures exercise the same applicability logic as
// the real tree.
func HasAnySegment(path string, segs ...string) bool {
	for _, part := range strings.Split(path, "/") {
		for _, s := range segs {
			if part == s {
				return true
			}
		}
	}
	return false
}

// IsTestFile reports whether file was parsed from a _test.go source
// file. The determinism and process-model analyzers skip test files:
// wall-clock deadlines and helper goroutines are legitimate in tests,
// which run outside the simulated machine.
func (p *Pass) IsTestFile(file *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go")
}

// WalkStack traverses every node under root, invoking fn with the node
// and the stack of its ancestors (outermost first, not including node
// itself). Returning false from fn prunes the subtree.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// Callee resolves the object a call expression invokes: the *types.Func
// (or builtin/var object) behind `f(...)`, `pkg.F(...)`, or
// `recv.M(...)`. It returns nil for calls through computed expressions.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// AddReferences records in refs every object that the non-test files
// among files refer to. Generic instances are recorded as their origin.
// A declaration's references to what it declares do not count, nor do
// a method's references to its receiver's type: recursion does not keep
// a function alive, and its own methods do not keep a type alive.
func AddReferences(refs map[types.Object]bool, fset *token.FileSet, files []*ast.File, info *types.Info) {
	for _, file := range files {
		if strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				self := []types.Object{info.Defs[d.Name]}
				if fn, ok := self[0].(*types.Func); ok {
					if recv := ReceiverType(fn); recv != nil {
						self = append(self, recv)
					}
				}
				addUses(refs, d, info, self)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var self []types.Object
					switch s := spec.(type) {
					case *ast.TypeSpec:
						self = append(self, info.Defs[s.Name])
					case *ast.ValueSpec:
						for _, n := range s.Names {
							self = append(self, info.Defs[n])
						}
					}
					addUses(refs, spec, info, self)
				}
			}
		}
	}
}

// addUses records the objects used under root, except those in self.
func addUses(refs map[types.Object]bool, root ast.Node, info *types.Info, self []types.Object) {
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := origin(info.Uses[id]); obj != nil && !slices.Contains(self, obj) {
				refs[obj] = true
			}
		}
		return true
	})
}

// ReceiverType returns the named type a method is declared on: T for
// func (T) M() and func (*T) M(), and the interface for an interface
// method. It returns nil for a plain function.
func ReceiverType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// origin maps an object of a generic instance to its generic origin,
// and returns every other object unchanged.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
