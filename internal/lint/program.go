package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// A Program is the interprocedural layer shared by one analysis run: a
// module-wide call graph over go/types with a per-function summary of
// the facts the cross-function analyzers need — whether a function may
// acquire a lock, and whether it reaches a context-free API whose
// *Context sibling exists. Summaries are computed to a
// monotone fixed point, so facts flow through arbitrarily deep call
// chains (and through recursion) without re-walking callee bodies at
// every call site.
//
// Function literals are deliberately excluded from summaries: a literal
// has no *types.Func identity callers could look up, and its body is
// scanned independently by each per-function analyzer.
type Program struct {
	facts map[*types.Func]*funcFacts
	order []*funcFacts // deterministic pkgs→files→decls order
}

// funcFacts is the per-function summary.
type funcFacts struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	hasCtx bool // any parameter is a context.Context

	// Lock fact: the name of one lock this function may acquire,
	// directly or through any callee (go statements, deferred calls and
	// function literals excluded — they do not run under the caller's
	// locks at the call point), for the diagnostic; "" when it takes
	// none.
	lock string

	// Context-flow facts, meaningful only when !hasCtx: the function
	// transitively reaches a context-free API with a *Context/*Ctx
	// sibling, without any ctx-taking frame in between. ctxChain is an
	// example call path for the diagnostic, ending at the sibling note.
	ctxTainted bool
	ctxChain   []string
}

// BuildProgram indexes every function declaration in pkgs and computes
// the summaries to a fixed point. The packages must come from a single
// Loader so *types.Func identities are shared across packages.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{facts: make(map[*types.Func]*funcFacts)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := &funcFacts{fn: fn, decl: fd, pkg: pkg, hasCtx: hasContextParam(fn.Type().(*types.Signature))}
				p.facts[fn] = ff
				p.order = append(p.order, ff)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ff := range p.order {
			if p.recompute(ff) {
				changed = true
			}
		}
	}
	return p
}

// factsFor returns the summary for fn, or nil when fn has no body in
// the analyzed package set (stdlib, interface methods, literals) or
// there is no program.
func (p *Program) factsFor(fn *types.Func) *funcFacts {
	if p == nil || fn == nil {
		return nil
	}
	return p.facts[fn]
}

// recompute rebuilds ff's summary from its body given the current
// summaries of its callees and reports whether anything changed. Every
// fact is monotone in its inputs, so iteration converges.
func (p *Program) recompute(ff *funcFacts) bool {
	next := &funcFacts{}
	info := ff.pkg.Info

	ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // no identity; scanned independently
		case *ast.GoStmt, *ast.DeferStmt:
			return false // not executed under the caller's frame here
		case *ast.CallExpr:
			if recv, method := mutexCallExpr(info, v); method == "Lock" || method == "RLock" {
				if next.lock == "" {
					next.lock = recv
				}
				return true
			}

			// Transitive facts through a summarized callee.
			fn := funcFor(info, v)
			cf := p.factsFor(fn)
			if cf == nil {
				return true
			}
			if next.lock == "" {
				next.lock = cf.lock
			}

			// Context taint: only non-ctx module-local frames propagate.
			if !ff.hasCtx && !next.ctxTainted && sameModule(ff.pkg.Path, pkgPathOf(fn)) && !hasContextParam(fn.Type().(*types.Signature)) {
				if sib := contextSiblingFrom(ff.pkg.Path, fn); sib != "" {
					next.ctxTainted = true
					next.ctxChain = []string{fn.Name() + " (sibling " + sib + " exists)"}
				} else if cf.ctxTainted {
					next.ctxTainted = true
					next.ctxChain = append([]string{fn.Name()}, cf.ctxChain...)
				}
			}
		}
		return true
	})

	// Direct taint from callees without bodies is impossible (the
	// sibling lookup above handles declared-elsewhere functions via
	// go/types, not via facts), so taint is complete here.

	// Freeze the example lock name and chain at the iteration that
	// first set them: only whether they exist participates in the fixed
	// point. A rebuilt chain can otherwise grow by one frame per
	// iteration on a recursive cycle (walk → walk → … never reaches
	// equality), so the `for changed` loop in BuildProgram would spin
	// forever.
	if ff.lock != "" {
		next.lock = ff.lock
	}
	if ff.ctxTainted {
		next.ctxChain = ff.ctxChain
	}
	changed := ff.lock != next.lock || ff.ctxTainted != next.ctxTainted
	ff.lock = next.lock
	ff.ctxTainted, ff.ctxChain = next.ctxTainted, next.ctxChain
	return changed
}

// pkgPathOf returns fn's package path, or "" for builtins.
func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// contextSiblingFrom is the module-local sibling lookup used by both
// the per-function ctxflow check and the interprocedural taint
// computation: it returns the name of fn's *Context/*Ctx variant when
// one exists and takes a context.Context first.
func contextSiblingFrom(fromPkgPath string, fn *types.Func) string {
	if fn.Pkg() == nil || !sameModule(fromPkgPath, fn.Pkg().Path()) {
		return ""
	}
	name := fn.Name()
	if strings.HasSuffix(name, "Context") || strings.HasSuffix(name, "Ctx") {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	for _, suffix := range []string{"Context", "Ctx"} {
		want := name + suffix
		var cand types.Object
		if recv := sig.Recv(); recv != nil {
			cand, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), want)
		} else {
			cand = fn.Pkg().Scope().Lookup(want)
		}
		cfn, ok := cand.(*types.Func)
		if !ok {
			continue
		}
		csig := cfn.Type().(*types.Signature)
		if csig.Params().Len() > 0 && isContextType(csig.Params().At(0).Type()) {
			return want
		}
	}
	return ""
}
