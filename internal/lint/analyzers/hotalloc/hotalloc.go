// Package hotalloc enforces the zero-allocation contract on functions
// annotated //ksr:hotpath: the calendar-queue operations, the
// context-switch fast path, the PDES window loop, and the disabled
// obs/prof paths. Those annotations are the static counterpart of the
// BENCH_sim.json allocs/op gates — the benchmark catches a regression
// after the fact, this analyzer points at the exact line that
// introduced it, including lines in other packages reached through
// calls.
//
// The scan is interprocedural (via the facts store) and understands the
// tree's zero-alloc idioms: amortized self-append, pooled objects,
// guarded hook blocks (`if fn := h.X; fn != nil { ... }`), panic
// arguments, and //ksr:coldpath escape routes are all off-budget.
// Computed calls (stored func values, like queued event bodies and
// continuation steps) are a documented blind spot: event bodies and
// steps are checked where they are declared hot, not where the
// dispatcher invokes them.
package hotalloc

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/facts"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "//ksr:hotpath functions must be transitively allocation-free",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	lookup := pass.FactsLookup()
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ann := facts.FuncAnnotations(fd)
			if !ann.Hot {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			res := facts.ScanFunc(pass.Fset, pass.TypesInfo, fd, facts.KeyOf(fn), lookup)
			for _, a := range res.Allocs {
				pass.Reportf(a.Pos, "hot path %s must be allocation-free: %s", fd.Name.Name, a.What)
			}
		}
	}
	return nil
}
