// Package deadapi reports exported identifiers under internal/ that no
// non-test file of the module references. Nothing outside the module
// can import internal/, so such an identifier is API that only tests
// call: a second path beside the one the program runs, or substrate no
// experiment reaches. It is deleted, moved into a _test.go file, or
// kept with a //lint:ignore ksrlint/deadapi directive whose reason says
// what reads it (instrumentation a gate depends on, or the separate
// bench module, which ksrlint does not load).
//
// The check covers package-level functions, methods, types, variables
// and constants, and the methods declared in interfaces; struct fields
// are out of scope. An interface method is live if it is referenced. A
// concrete method is live if it is referenced directly, if a method of
// the same name is referenced through any interface, or if code outside
// the module reaches it through an interface by name (String, Error,
// Unwrap, sort.Interface, heap.Interface and the JSON marshalers).
//
// Liveness is a property of the whole module, so the analyzer reads
// Pass.Referenced, which only the standalone driver fills, and only when
// it loaded every package of the module. Under go vet, or on a partial
// pattern, the set is nil and the analyzer reports nothing.
package deadapi

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "deadapi",
	Doc:  "exported internal/ identifiers that no non-test file references",
	Run:  run,
}

// implicit are the method names that code outside the module calls
// through its own interfaces: fmt, errors, sort, container/heap and
// encoding/json.
var implicit = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if pass.Referenced == nil || !analysis.HasAnySegment(path, "internal") ||
		analysis.HasAnySegment(path, "analysistest") {
		return nil
	}
	viaInterface := map[string]bool{}
	for obj := range pass.Referenced {
		if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
			viaInterface[fn.Name()] = true
		}
	}
	check := func(id *ast.Ident, kind string) {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil || !obj.Exported() || pass.Referenced[obj] {
			return
		}
		name := id.Name
		if fn, ok := obj.(*types.Func); ok {
			if !isInterfaceMethod(fn) && (viaInterface[name] || implicit[name]) {
				return
			}
			if recv := analysis.ReceiverType(fn); recv != nil {
				name = recv.Name() + "." + name
			}
		}
		pass.Reportf(id.Pos(), "exported %s %s has no reference outside tests: delete it, move it into a _test.go file, or keep it with a reason", kind, name)
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					check(d.Name, "method")
				} else {
					check(d.Name, "func")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type")
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									check(id, "interface method")
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							check(id, d.Tok.String())
						}
					}
				}
			}
		}
	}
	return nil
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}
