package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Program is the interprocedural layer shared by one analysis run: a
// module-wide call graph over go/types with a per-function summary of
// the facts the cross-function analyzers need — the transitive set of
// locks a function may acquire, and whether it reaches a context-free
// API whose *Context sibling exists. Summaries are computed to a
// monotone fixed point, so facts flow through arbitrarily deep call
// chains (and through recursion) without re-walking callee bodies at
// every call site.
//
// Function literals are deliberately excluded from summaries: a literal
// has no *types.Func identity callers could look up, and its body is
// scanned independently by each per-function analyzer.
type Program struct {
	fset  *token.FileSet
	facts map[*types.Func]*funcFacts
	order []*funcFacts // deterministic pkgs→files→decls order

	lockEdges []lockEdge
	lockAdj   map[string][]string // acquisition graph, neighbors sorted
}

// funcFacts is the per-function summary.
type funcFacts struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	hasCtx bool // any parameter is a context.Context

	// Lock facts: every canonical lock key this function may acquire,
	// directly or through any callee (go statements, deferred calls and
	// function literals excluded — they do not run under the caller's
	// locks at the call point).
	locks map[string]bool

	// Context-flow facts, meaningful only when !hasCtx: the function
	// transitively reaches a context-free API with a *Context/*Ctx
	// sibling, without any ctx-taking frame in between. ctxChain is an
	// example call path for the diagnostic, ending at the sibling note.
	ctxTainted bool
	ctxChain   []string
}

// lockEdge is one observed nesting: `to` acquired while `from` is held.
type lockEdge struct {
	from, to string
	fromKind string // "Lock" or "RLock"
	toKind   string
	pos      token.Pos
	via      string // callee name when the inner acquisition is transitive
	pkg      *types.Package
}

// BuildProgram indexes every function declaration in pkgs and computes
// the summaries to a fixed point. The packages must come from a single
// Loader so *types.Func identities are shared across packages.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{facts: make(map[*types.Func]*funcFacts)}
	if len(pkgs) > 0 {
		p.fset = pkgs[0].Fset
	}
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
	p.computeLockEdges()
	return p
}

// factsFor returns the summary for fn, or nil when fn has no body in
// the analyzed package set (stdlib, interface methods, literals).
func (p *Program) factsFor(fn *types.Func) *funcFacts {
	if fn == nil {
		return nil
	}
	return p.facts[fn]
}

// recompute rebuilds ff's summary from its body given the current
// summaries of its callees and reports whether anything changed. Every
// fact is monotone in its inputs, so iteration converges.
func (p *Program) recompute(ff *funcFacts) bool {
	next := &funcFacts{locks: make(map[string]bool)}
	info := ff.pkg.Info

	ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // no identity; scanned independently
		case *ast.GoStmt, *ast.DeferStmt:
			return false // not executed under the caller's frame here
		case *ast.CallExpr:
			fn := funcFor(info, v)
			if fn == nil {
				return true
			}
			if r, k := mutexCallInfo(info, v); k == "Lock" || k == "RLock" {
				if key := lockKeyFor(info, r); key != "" {
					next.locks[key] = true
				}
				return true
			}

			// Transitive facts through a summarized callee.
			cf := p.facts[fn]
			if cf == nil {
				return true
			}
			for key := range cf.locks {
				next.locks[key] = true
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

	// Freeze the example chain at the iteration that first tainted the
	// function: only the boolean participates in the fixed point. A
	// rebuilt chain can otherwise grow by one frame per iteration on a
	// recursive cycle (walk → walk → … never reaches equality), so the
	// `for changed` loop in BuildProgram would spin forever.
	if ff.ctxTainted && next.ctxTainted {
		next.ctxChain = ff.ctxChain
	}
	changed := ff.hasChangedFrom(next)
	ff.locks = next.locks
	ff.ctxTainted, ff.ctxChain = next.ctxTainted, next.ctxChain
	return changed
}

func (ff *funcFacts) hasChangedFrom(next *funcFacts) bool {
	if ff.ctxTainted != next.ctxTainted || !equalStrings(ff.ctxChain, next.ctxChain) {
		return true
	}
	if len(ff.locks) != len(next.locks) {
		return true
	}
	for k := range next.locks {
		if !ff.locks[k] {
			return true
		}
	}
	return false
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedLockKeys returns the summary's acquire set in stable order for
// deterministic edge emission.
func sortedLockKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pkgPathOf returns fn's package path, or "" for builtins.
func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// ---- lock identity and the acquisition graph ---------------------------

// mutexCallInfo is mutexCallExpr without a Pass: it matches
// sync.(RW)Mutex Lock/RLock/Unlock/RUnlock calls and returns the
// receiver expression and method name.
func mutexCallInfo(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.X, fn.Name()
	}
	return nil, ""
}

// lockKeyFor canonicalizes a mutex receiver expression into a
// module-wide lock identity:
//
//   - a struct field `x.mu` keys by the owning named type —
//     "pkg.Type.mu" — conflating all instances of that type (the
//     ordering discipline is per-type, which is what deadlock freedom
//     needs);
//   - a package-level var (including one with an embedded Mutex whose
//     promoted Lock is called directly) keys as "pkg.var";
//   - a local or parameter of a named struct type with a promoted
//     Lock keys by that type;
//   - everything else (a bare local sync.Mutex) has no cross-function
//     identity and returns "".
func lockKeyFor(info *types.Info, recv ast.Expr) string {
	e := ast.Unparen(recv)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch v := e.(type) {
	case *ast.Ident:
		obj := info.Uses[v]
		vr, ok := obj.(*types.Var)
		if !ok || vr.Pkg() == nil {
			return ""
		}
		if vr.Parent() == vr.Pkg().Scope() {
			return vr.Pkg().Path() + "." + vr.Name()
		}
		return namedTypeKey(vr.Type())
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(v.X).(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if vr, ok := info.Uses[v.Sel].(*types.Var); ok && vr.Pkg() != nil {
					return vr.Pkg().Path() + "." + vr.Name()
				}
				return ""
			}
		}
		tv, ok := info.Types[v.X]
		if !ok {
			return ""
		}
		if key := namedTypeKey(tv.Type); key != "" {
			return key + "." + v.Sel.Name
		}
	}
	return ""
}

// namedTypeKey renders a (possibly pointer-to) named non-sync type as
// "pkg.Type", or "".
func namedTypeKey(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() == "sync" {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// computeLockEdges walks every lock region in the program (the lockheld
// document-order approximation: Lock to the first same-receiver Unlock,
// or block end when deferred) and records which other locks are
// acquired inside it, directly or through a summarized callee.
func (p *Program) computeLockEdges() {
	// Each declared body is walked once; function literals nested in it
	// are reached by the same block walk, so their regions count too.
	for _, ff := range p.order {
		p.lockEdgesIn(ff.pkg, ff.decl.Body)
	}

	p.lockAdj = make(map[string][]string)
	adjSet := make(map[string]map[string]bool)
	for _, e := range p.lockEdges {
		if adjSet[e.from] == nil {
			adjSet[e.from] = make(map[string]bool)
		}
		adjSet[e.from][e.to] = true
	}
	for from, tos := range adjSet {
		p.lockAdj[from] = sortedLockKeys(tos)
	}
}

// lockEdgesIn scans one function body (its literals included) for lock
// regions and appends the nesting edges found.
func (p *Program) lockEdgesIn(pkg *Package, body *ast.BlockStmt) {
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			es, ok := stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			recv, kind := mutexCallInfo(info, call)
			if kind != "Lock" && kind != "RLock" {
				continue
			}
			key := lockKeyFor(info, recv)
			if key == "" {
				continue
			}
			s := &lockRegionScan{prog: p, pkg: pkg, recv: types.ExprString(recv), key: key, kind: kind}
			for _, held := range block.List[i+1:] {
				if s.done {
					break
				}
				s.scan(held)
			}
		}
		return true
	})
}

// lockRegionScan walks the statements after one Lock in document order,
// recording inner acquisitions until the matching Unlock.
type lockRegionScan struct {
	prog *Program
	pkg  *Package
	recv string
	key  string
	kind string
	done bool
}

func (s *lockRegionScan) scan(stmt ast.Stmt) {
	info := s.pkg.Info
	ast.Inspect(stmt, func(n ast.Node) bool {
		if s.done {
			return false
		}
		switch v := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			// Not executed under this lock at this point (a deferred
			// mu.Unlock keeps the region open to block end, matching
			// lockheld's approximation).
			return false
		case *ast.CallExpr:
			recv, kind := mutexCallInfo(info, v)
			if kind != "" && types.ExprString(recv) == s.recv && (kind == "Unlock" || kind == "RUnlock") {
				s.done = true
				return false
			}
			if kind == "Lock" || kind == "RLock" {
				if key := lockKeyFor(info, recv); key != "" {
					// RLock inside RLock on the same key is recorded too:
					// sync.RWMutex forbids recursive read locking — a
					// writer's Lock queued between the two RLocks blocks
					// the second one and deadlocks.
					s.add(key, kind, v.Pos(), "")
				}
				return true
			}
			if fn := funcFor(info, v); fn != nil {
				if cf := s.prog.facts[fn]; cf != nil {
					for _, key := range sortedLockKeys(cf.locks) {
						s.add(key, "Lock", v.Pos(), fn.Name())
					}
				}
			}
		}
		return true
	})
}

func (s *lockRegionScan) add(to, toKind string, pos token.Pos, via string) {
	s.prog.lockEdges = append(s.prog.lockEdges, lockEdge{
		from: s.key, to: to, fromKind: s.kind, toKind: toKind,
		pos: pos, via: via, pkg: s.pkg.Types,
	})
}

// lockPath returns a shortest path from → … → to in the acquisition
// graph (inclusive of both endpoints), or nil when to is unreachable.
// Neighbor order is sorted, so the returned path is deterministic.
func (p *Program) lockPath(from, to string) []string {
	if from == to {
		return []string{from}
	}
	prev := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range p.lockAdj[cur] {
			if _, ok := prev[next]; ok {
				continue
			}
			prev[next] = cur
			if next == to {
				var path []string
				for n := to; ; n = prev[n] {
					path = append([]string{n}, path...)
					if n == from {
						return path
					}
				}
			}
			queue = append(queue, next)
		}
	}
	return nil
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
