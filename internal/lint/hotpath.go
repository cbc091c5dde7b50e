package lint

import "go/ast"

// engineConstructionPackages are the packages whose per-cell paths must
// acquire pooled simContexts instead of constructing engines: a
// sim.NewEngine() call there silently reverts the worker-affine arena
// design back to per-cell construction, the allocator cost the pool
// exists to remove. The pool's own constructor carries the one annotated
// allow. The fixture package exercises the analyzer's testdata.
var engineConstructionPackages = map[string]bool{
	"stash/internal/core": true,
	"fixture/hotpathcore": true,
}

// simEnginePkg is the import path of the simulation engine.
const simEnginePkg = "stash/internal/sim"

// Hotpath flags sim.NewEngine() calls in internal/core's per-cell path,
// where cells must run on pooled simContexts. Deliberate construction
// sites carry //lint:allow hotpath annotations.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid sim.NewEngine() in internal/core's per-cell path (pooled simContexts replace per-cell construction)",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) {
	if !engineConstructionPackages[pass.Pkg.Path()] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			v, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcFor(pass.Info, v)
			if fn == nil || fn.Name() != "NewEngine" || fn.Pkg() == nil || fn.Pkg().Path() != simEnginePkg {
				return true
			}
			pass.Reportf(v.Pos(), "sim.NewEngine() in a per-cell profiler package defeats the worker-affine engine pool; acquire a pooled simContext or annotate //lint:allow hotpath <reason>")
			return true
		})
	}
}
