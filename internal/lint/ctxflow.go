package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context threading on request paths: a function that
// receives a context.Context must pass it along, not mint a fresh root.
// Three patterns are flagged inside such functions: (1) any call to
// context.Background() or context.TODO(), which silently detaches the
// callee from the request's deadline and cancellation (a stashd request
// timeout or SIGTERM drain would no longer stop the work); (2) calling
// Foo(...) when a FooContext(ctx, ...) variant exists in the same
// package or method set — the repo's convention for context-threading
// APIs (Profile/ProfileContext, ForEach/ForEachCtx); and (3) — the
// interprocedural closure of (2), via the Program call-graph summaries
// — calling a ctx-less module helper whose call chain reaches such a
// context-free API any number of frames down without a ctx-taking
// frame in between. Taint propagation stops at ctx-taking callees:
// those are entry points in their own right and are checked directly.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "thread a received ctx interprocedurally: no context.Background()/TODO(), no " +
		"calls to the context-free variant of an API whose *Context sibling exists, and " +
		"no ctx-less helper chains that reach such an API frames down — detached work " +
		"outlives request deadlines and the shutdown drain",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var sig *types.Signature
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
				if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
					sig = obj.Type().(*types.Signature)
				}
			case *ast.FuncLit:
				body = fn.Body
				if tv, ok := pass.Info.Types[fn]; ok {
					sig, _ = tv.Type.(*types.Signature)
				}
			}
			if body == nil || sig == nil || !hasContextParam(sig) {
				return true
			}
			checkCtxBody(pass, body)
			// Nested function literals are checked on their own walk
			// (they may or may not take a ctx themselves), so stop here
			// only for the ctx checks; keep traversing for nested defs.
			return true
		})
	}
}

// hasContextParam reports whether any parameter is a context.Context.
func hasContextParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// checkCtxBody flags detached-context patterns in one ctx-receiving
// function body, without descending into nested function literals.
func checkCtxBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcFor(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
			pass.Reportf(call.Pos(), "context.%s inside a function that receives a ctx detaches the callee from the request's deadline and cancellation; thread the ctx (or annotate //lint:allow ctxflow <reason>)", fn.Name())
			return true
		}
		if sibling := contextSibling(pass, fn); sibling != "" {
			pass.Reportf(call.Pos(), "%s has a context-threading variant %s; call it with the ctx this function already holds", fn.Name(), sibling)
			return true
		}
		// Interprocedural: a ctx-less module helper whose chain reaches
		// a context-free API with a *Context sibling, frames down.
		if ff := pass.Prog.factsFor(fn); ff != nil && ff.ctxTainted && !ff.hasCtx {
			chain := strings.Join(append([]string{fn.Name()}, ff.ctxChain...), " → ")
			pass.Reportf(call.Pos(), "%s reaches the context-free %s without a ctx-taking frame in between (chain: %s); thread the ctx this function already holds through that chain", fn.Name(), chainTail(ff.ctxChain), chain)
		}
		return true
	})
}

// chainTail names the context-free API at the end of a taint chain for
// the diagnostic headline.
func chainTail(chain []string) string {
	if len(chain) == 0 {
		return "API"
	}
	last := chain[len(chain)-1]
	if i := strings.IndexByte(last, ' '); i > 0 {
		return last[:i]
	}
	return last
}

// contextSibling returns the name of fn's *Context/*Ctx variant if one
// exists in the same package scope (for functions) or method set (for
// methods) and takes a context.Context. Only module-local APIs are
// considered — the repo controls those naming pairs. The lookup itself
// lives in contextSiblingFrom so the Program's taint computation shares
// it.
func contextSibling(pass *Pass, fn *types.Func) string {
	return contextSiblingFrom(pass.Pkg.Path(), fn)
}

// sameModule reports whether two import paths share their first path
// element (the module), so the sibling check covers cross-package
// calls like experiments -> core but never the standard library.
func sameModule(a, b string) bool {
	first := func(p string) string {
		if i := strings.IndexByte(p, '/'); i >= 0 {
			return p[:i]
		}
		return p
	}
	return first(a) == first(b)
}
