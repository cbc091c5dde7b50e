package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PoolSafe proves the rules of the free lists that work inside one
// run: once a handle is given back to its pool, any further use reads
// (or corrupts) state that may already belong to another owner — a
// silent, schedule-dependent way to break the byte-identical stall
// tables. The tracked invalidators are Network.Recycle(f) and
// Network.RecycleGroup(g): after either call the flow or flow group and
// everything reached through it is stale.
//
// The check is a forward may-analysis in document order per function
// (the same approximation lockheld uses): a handle invalidated on any
// path is flagged at every later use, unless the invalidating branch
// provably terminates (return/panic/break). Reassignment re-validates.
// Facts flow through calls via the Program summaries, so a helper that
// recycles its argument three frames down still poisons the caller's
// handle.
//
// The analyzer also guards sim.Signal's waiter lifecycle: Rearm while a
// waiter registered by OnFire may still be parked panics at runtime
// mid-simulation; here it is caught at compile time. Fire clears the
// parked set.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc: "forbid use of a pooled flow after Network.Recycle/RecycleGroup, and Signal.Rearm " +
		"while a waiter may be parked: a recycled handle aliases another owner's state, " +
		"corrupting stall tables nondeterministically",
	Run: runPoolSafe,
}

func runPoolSafe(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				sc := &psScan{pass: pass}
				sc.scanStmt(newPSState(), body)
			}
			return true
		})
	}
}

// psVar is the lattice value for one invalidated pooled handle; a
// handle with no entry is valid.
type psVar struct {
	invalidatedBy string
	invalidLine   int
}

// psState is the per-path analysis state: tracked handles and signals
// with a possibly-parked waiter (keyed by receiver expression).
type psState struct {
	vars       map[types.Object]*psVar
	parked     map[string]int // signal expr key → line of the OnFire
	terminated bool
}

func newPSState() *psState {
	return &psState{vars: make(map[types.Object]*psVar), parked: make(map[string]int)}
}

func (st *psState) clone() *psState {
	out := newPSState()
	out.terminated = st.terminated
	for obj, v := range st.vars {
		cp := *v
		out.vars[obj] = &cp
	}
	for k, p := range st.parked {
		out.parked[k] = p
	}
	return out
}

// unionStates merges the surviving branch states: a handle invalid on
// any live path stays invalid, a waiter parked on any live path stays
// parked. Branches that terminated (returned, panicked, broke out) do
// not contribute. Ties resolve to the smallest line so the result is
// independent of map iteration order.
func unionStates(cands ...*psState) *psState {
	var live []*psState
	for _, c := range cands {
		if c != nil && !c.terminated {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return nil
	}
	out := live[0].clone()
	for _, c := range live[1:] {
		for obj, v := range c.vars {
			cur, ok := out.vars[obj]
			if !ok {
				cp := *v
				out.vars[obj] = &cp
				continue
			}
			if v.invalidLine < cur.invalidLine {
				cur.invalidatedBy, cur.invalidLine = v.invalidatedBy, v.invalidLine
			}
		}
		for k, line := range c.parked {
			if cur, ok := out.parked[k]; !ok || line < cur {
				out.parked[k] = line
			}
		}
	}
	return out
}

func (st *psState) replaceWith(u *psState) {
	if u == nil {
		st.terminated = true
		return
	}
	st.vars, st.parked = u.vars, u.parked
}

type psScan struct {
	pass *Pass
}

func (sc *psScan) scanStmt(st *psState, s ast.Stmt) {
	if st.terminated || s == nil {
		return
	}
	switch v := s.(type) {
	case *ast.BlockStmt:
		for _, s2 := range v.List {
			sc.scanStmt(st, s2)
		}
	case *ast.ExprStmt:
		sc.scanExpr(st, v.X)
	case *ast.AssignStmt:
		for _, r := range v.Rhs {
			sc.scanExpr(st, r)
		}
		for _, l := range v.Lhs {
			sc.assignLHS(st, l)
		}
	case *ast.DeclStmt:
		gd, ok := v.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, val := range vs.Values {
				sc.scanExpr(st, val)
			}
			for _, name := range vs.Names {
				delete(st.vars, sc.pass.Info.Defs[name])
			}
		}
	case *ast.IfStmt:
		sc.scanStmt(st, v.Init)
		sc.scanExpr(st, v.Cond)
		then := st.clone()
		sc.scanStmt(then, v.Body)
		els := st.clone()
		if v.Else != nil {
			sc.scanStmt(els, v.Else)
		}
		st.replaceWith(unionStates(then, els))
	case *ast.ForStmt:
		sc.scanStmt(st, v.Init)
		sc.scanExpr(st, v.Cond)
		body := st.clone()
		sc.scanStmt(body, v.Body)
		sc.scanStmt(body, v.Post)
		st.replaceWith(unionStates(body, st.clone()))
	case *ast.RangeStmt:
		sc.scanExpr(st, v.X)
		body := st.clone()
		sc.assignLHS(body, v.Key)
		sc.assignLHS(body, v.Value)
		sc.scanStmt(body, v.Body)
		st.replaceWith(unionStates(body, st.clone()))
	case *ast.SwitchStmt:
		sc.scanStmt(st, v.Init)
		sc.scanExpr(st, v.Tag)
		sc.scanCases(st, v.Body, switchHasDefault(v.Body))
	case *ast.TypeSwitchStmt:
		sc.scanStmt(st, v.Init)
		if as, ok := v.Assign.(*ast.AssignStmt); ok {
			for _, r := range as.Rhs {
				sc.scanExpr(st, r)
			}
		} else if es, ok := v.Assign.(*ast.ExprStmt); ok {
			sc.scanExpr(st, es.X)
		}
		sc.scanCases(st, v.Body, switchHasDefault(v.Body))
	case *ast.SelectStmt:
		var branches []*psState
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			b := st.clone()
			sc.scanStmt(b, cc.Comm)
			for _, s2 := range cc.Body {
				sc.scanStmt(b, s2)
			}
			branches = append(branches, b)
		}
		st.replaceWith(unionStates(branches...))
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			sc.scanExpr(st, e)
		}
		st.terminated = true
	case *ast.BranchStmt:
		// break/continue/goto leave this straight-line path; treating
		// them as terminators keeps the guard-and-bail idiom clean.
		// fallthrough does the opposite — execution continues into the
		// next case body — so scanCases threads its state onward.
		if v.Tok != token.FALLTHROUGH {
			st.terminated = true
		}
	case *ast.DeferStmt:
		// Receiver and arguments are evaluated now; the call's effects
		// happen at function exit, outside this document-order scan.
		sc.scanCallOperands(st, v.Call)
	case *ast.GoStmt:
		sc.scanCallOperands(st, v.Call)
	case *ast.LabeledStmt:
		sc.scanStmt(st, v.Stmt)
	case *ast.SendStmt:
		sc.scanExpr(st, v.Chan)
		sc.scanExpr(st, v.Value)
	case *ast.IncDecStmt:
		sc.scanExpr(st, v.X)
	}
}

func switchHasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func (sc *psScan) scanCases(st *psState, body *ast.BlockStmt, hasDefault bool) {
	var branches []*psState
	var fell *psState // state flowing in when the previous case fell through
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b := st.clone()
		if fell != nil {
			// Entered either by matching the case or by falling through
			// from the previous one: union both entry states.
			b = unionStates(b, fell)
			fell = nil
		}
		for _, e := range cc.List {
			sc.scanExpr(b, e)
		}
		for _, s2 := range cc.Body {
			sc.scanStmt(b, s2)
		}
		if caseFallsThrough(cc) {
			// Control transfers into the next case, so this path joins
			// the switch exit through that case's body, not here.
			fell = b
			continue
		}
		branches = append(branches, b)
	}
	if !hasDefault {
		branches = append(branches, st.clone()) // the no-case-taken path
	}
	st.replaceWith(unionStates(branches...))
}

// caseFallsThrough reports whether the case body ends in a fallthrough
// statement (the spec requires it to be the final statement).
func caseFallsThrough(cc *ast.CaseClause) bool {
	if len(cc.Body) == 0 {
		return false
	}
	s := cc.Body[len(cc.Body)-1]
	for {
		ls, ok := s.(*ast.LabeledStmt)
		if !ok {
			break
		}
		s = ls.Stmt
	}
	br, ok := s.(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// assignLHS handles one assignment target: an identifier target is
// re-validated, any other target is scanned for uses of stale handles in
// its base.
func (sc *psScan) assignLHS(st *psState, l ast.Expr) {
	if l == nil {
		return
	}
	if id, ok := ast.Unparen(l).(*ast.Ident); ok {
		obj := sc.pass.Info.Defs[id]
		if obj == nil {
			obj = sc.pass.Info.Uses[id]
		}
		delete(st.vars, obj)
		return
	}
	sc.scanExpr(st, l)
}

// scanCallOperands evaluates a go/defer call's operands for stale uses
// without applying the call's pool effects.
func (sc *psScan) scanCallOperands(st *psState, call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		sc.scanExpr(st, sel.X)
	}
	for _, a := range call.Args {
		sc.scanExpr(st, a)
	}
}

func (sc *psScan) scanExpr(st *psState, e ast.Expr) {
	if st.terminated || e == nil {
		return
	}
	switch v := e.(type) {
	case *ast.Ident:
		sc.checkUse(st, v)
	case *ast.FuncLit:
		// Scanned as its own function by runPoolSafe.
	case *ast.CallExpr:
		sc.scanExpr(st, v.Fun)
		for _, a := range v.Args {
			sc.scanExpr(st, a)
		}
		sc.applyCall(st, v)
	case *ast.SelectorExpr:
		sc.scanExpr(st, v.X)
	case *ast.BinaryExpr:
		sc.scanExpr(st, v.X)
		sc.scanExpr(st, v.Y)
	case *ast.UnaryExpr:
		sc.scanExpr(st, v.X)
	case *ast.StarExpr:
		sc.scanExpr(st, v.X)
	case *ast.ParenExpr:
		sc.scanExpr(st, v.X)
	case *ast.IndexExpr:
		sc.scanExpr(st, v.X)
		sc.scanExpr(st, v.Index)
	case *ast.IndexListExpr:
		sc.scanExpr(st, v.X)
		for _, i := range v.Indices {
			sc.scanExpr(st, i)
		}
	case *ast.SliceExpr:
		sc.scanExpr(st, v.X)
		sc.scanExpr(st, v.Low)
		sc.scanExpr(st, v.High)
		sc.scanExpr(st, v.Max)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			sc.scanExpr(st, el)
		}
	case *ast.KeyValueExpr:
		sc.scanExpr(st, v.Value)
	case *ast.TypeAssertExpr:
		sc.scanExpr(st, v.X)
	}
}

func (sc *psScan) checkUse(st *psState, id *ast.Ident) {
	obj := sc.pass.Info.Uses[id]
	if obj == nil {
		return
	}
	v, ok := st.vars[obj]
	if !ok {
		return
	}
	sc.pass.Reportf(id.Pos(),
		"%s used after %s (line %d): a recycled flow may already belong to another owner; re-acquire it from the pool instead",
		id.Name, v.invalidatedBy, v.invalidLine)
}

// applyCall applies the pool effects of one call after its operands
// have been scanned: direct lifecycle APIs first, then summarized
// callees from the Program.
func (sc *psScan) applyCall(st *psState, call *ast.CallExpr) {
	info := sc.pass.Info
	fn := funcFor(info, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	var recvExpr ast.Expr
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvExpr = sel.X
		}
	}
	line := sc.pass.Fset.Position(call.Pos()).Line

	if label := poolInvalidator(fn); label != "" {
		if len(call.Args) > 0 {
			sc.invalidate(st, call.Args[0], label, line)
		}
		return
	}
	switch signalOp(fn) {
	case sigOnFire:
		if k := exprKey(recvExpr); k != "" {
			if _, ok := st.parked[k]; !ok {
				st.parked[k] = line
			}
		}
		return
	case sigFire:
		delete(st.parked, exprKey(recvExpr))
		return
	case sigRearm:
		k := exprKey(recvExpr)
		if at, ok := st.parked[k]; ok {
			sc.pass.Reportf(call.Pos(),
				"Rearm of %s while a waiter registered at line %d may still be parked; Fire the signal or drop the waiter before re-arming (Rearm panics on parked waiters at runtime)",
				k, at)
		}
		return
	}

	if sc.pass.Prog == nil {
		return
	}
	cf := sc.pass.Prog.factsFor(fn)
	if cf == nil {
		return
	}
	for _, i := range sortedIntKeysString(cf.invalidates) {
		if arg := argExprAt(call, sig, i); arg != nil {
			sc.invalidate(st, arg, cf.invalidates[i]+" (via "+fn.Name()+")", line)
		}
	}
	for _, i := range sortedIntKeysBool(cf.rearms) {
		if arg := argExprAt(call, sig, i); arg != nil {
			k := exprKey(arg)
			if at, ok := st.parked[k]; ok {
				sc.pass.Reportf(call.Pos(),
					"Rearm of %s (via %s) while a waiter registered at line %d may still be parked; Fire the signal or drop the waiter before re-arming",
					k, fn.Name(), at)
			}
		}
	}
	for _, i := range sortedIntKeysBool(cf.registers) {
		if arg := argExprAt(call, sig, i); arg != nil {
			if k := exprKey(arg); k != "" {
				if _, ok := st.parked[k]; !ok {
					st.parked[k] = line
				}
			}
		}
	}
	for _, i := range sortedIntKeysBool(cf.clears) {
		if arg := argExprAt(call, sig, i); arg != nil {
			delete(st.parked, exprKey(arg))
		}
	}
}

// invalidate marks the handle behind e stale. Only identifier-rooted
// handles are tracked; invalidating a field or element is out of this
// approximation's reach.
func (sc *psScan) invalidate(st *psState, e ast.Expr, label string, line int) {
	if e == nil {
		return
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	obj := sc.pass.Info.Uses[id]
	if obj == nil || !isPooledFlow(obj.Type()) {
		return
	}
	if _, stale := st.vars[obj]; !stale {
		st.vars[obj] = &psVar{invalidatedBy: label, invalidLine: line}
	}
}

func sortedIntKeysString(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedIntKeysBool(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
