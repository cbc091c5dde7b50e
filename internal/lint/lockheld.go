package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHeld enforces one rule for every critical section: while a
// sync.Mutex or sync.RWMutex is held, nothing blocks and no lock is
// taken. Blocking means a channel send or receive (including
// <-ctx.Done()), a select, a range over a channel, sync.WaitGroup.Wait
// or time.Sleep. Taking a lock means a Lock or RLock on any receiver —
// the held one included — or a call to a function whose Program
// summary says it may acquire a lock, however many frames down.
// Holding a lock across a wait is how the single-flight profiler cache
// or the stashd job store would deadlock (or serialize) under a
// schedule the race detector never happens to produce; the correct
// pattern — publish the entry, unlock, then wait — is what this
// analyzer proves.
//
// The no-nesting half is a lock-order check with nothing left to
// order: every lock-order cycle, self-deadlock (sync mutexes are not
// reentrant) and recursive RLock (a writer queued between the two
// RLocks deadlocks the second) needs one lock taken while another is
// held. Consistently ordered nesting is rejected too; the tree has
// none, and a critical section that needs two locks is a sign the
// state wants one owner.
//
// The held region is syntactic: it runs from a mu.Lock() statement
// through the rest of its block until an Unlock on the same receiver.
// An Unlock nested in a branch ends the region only for the rest of
// that branch; the scan resumes after the branch, which is the
// single-flight cache's `if hit { Unlock; wait; return }` shape. A
// deferred Unlock keeps the region open to the end of the block.
// sync.Cond.Wait is exempt: it atomically releases the lock it guards.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "while a mutex is held, nothing blocks (channel ops, select, WaitGroup.Wait, " +
		"time.Sleep) and no lock is taken, directly or through any call chain: waits " +
		"and nested acquisitions under a lock deadlock or serialize on schedules " +
		"dynamic testing cannot enumerate",
	Run: runLockHeld,
}

func runLockHeld(pass *Pass) {
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
				checkLockRegions(pass, body)
			}
			return true
		})
	}
}

// checkLockRegions scans every block in one function body for Lock
// calls and inspects the statements held under each.
func checkLockRegions(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literals are scanned on their own
		}
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
			if recv, method := mutexCallExpr(pass.Info, call); method == "Lock" || method == "RLock" {
				h := &heldScan{pass: pass, recv: recv}
				h.list(block.List[i+1:])
			}
		}
		return true
	})
}

// heldScan walks the statements after a Lock, flagging blocking
// operations and lock acquisitions until the matching Unlock.
type heldScan struct {
	pass *Pass
	recv string
}

// list scans a statement sequence under the lock and reports whether
// one of its statements released it for the rest of the sequence.
func (h *heldScan) list(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if h.stmt(s) {
			return true
		}
	}
	return false
}

// stmt scans one statement and reports whether it releases the lock
// for the statements after it. Each branch of a compound statement is
// scanned as its own sequence: an Unlock inside one ends the region for
// the rest of that branch only.
func (h *heldScan) stmt(s ast.Stmt) bool {
	switch v := s.(type) {
	case *ast.BlockStmt:
		return h.list(v.List)
	case *ast.LabeledStmt:
		return h.stmt(v.Stmt)
	case *ast.IfStmt:
		if h.nodes(v.Init, v.Cond) {
			return true
		}
		h.list(v.Body.List)
		if v.Else != nil {
			h.stmt(v.Else)
		}
	case *ast.ForStmt:
		if h.nodes(v.Init, v.Cond) {
			return true
		}
		h.list(v.Body.List)
		h.nodes(v.Post)
	case *ast.RangeStmt:
		if tv, ok := h.pass.Info.Types[v.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				h.pass.Reportf(v.Pos(), "range over channel while %s is locked; unlock before waiting", h.recv)
			}
		}
		if h.nodes(v.X) {
			return true
		}
		h.list(v.Body.List)
	case *ast.SwitchStmt:
		if h.nodes(v.Init, v.Tag) {
			return true
		}
		h.clauses(v.Body)
	case *ast.TypeSwitchStmt:
		if h.nodes(v.Init, v.Assign) {
			return true
		}
		h.clauses(v.Body)
	case *ast.SelectStmt:
		h.pass.Reportf(v.Pos(), "select while %s is locked; unlock before waiting", h.recv)
	default:
		return h.nodes(s)
	}
	return false
}

// clauses scans each case of a switch body as its own branch.
func (h *heldScan) clauses(body *ast.BlockStmt) {
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		for _, e := range cc.List {
			h.nodes(e)
		}
		h.list(cc.Body)
	}
}

// nodes inspects simple statements and expressions, which run in
// order, and reports whether any of them released the lock.
func (h *heldScan) nodes(ns ...ast.Node) bool {
	released := false
	for _, n := range ns {
		if n == nil || released {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if released {
				return false
			}
			switch v := n.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				// A literal runs on another goroutine or later (or is
				// merely defined); defer mu.Unlock() keeps the region
				// open to the block's end, and any other deferred call
				// runs after the unlock anyway.
				return false
			case *ast.CallExpr:
				released = h.call(v)
			case *ast.SendStmt:
				h.pass.Reportf(v.Pos(), "channel send while %s is locked; unlock before communicating", h.recv)
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					h.pass.Reportf(v.Pos(), "channel receive while %s is locked; unlock before waiting", h.recv)
				}
			}
			return !released
		})
	}
	return released
}

// call checks one call made under the lock and reports whether it is
// the matching Unlock.
func (h *heldScan) call(call *ast.CallExpr) bool {
	switch recv, method := mutexCallExpr(h.pass.Info, call); method {
	case "Unlock", "RUnlock":
		return recv == h.recv
	case "Lock", "RLock":
		h.pass.Reportf(call.Pos(), "%s.%s while %s is locked; a critical section takes no other lock", recv, method, h.recv)
		return false
	}
	fn := funcFor(h.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	switch {
	case fn.Pkg().Path() == "sync" && fn.Name() == "Wait" && sig.Recv() != nil && !isCondRecv(sig):
		h.pass.Reportf(call.Pos(), "sync.WaitGroup.Wait while %s is locked; unlock before waiting", h.recv)
	case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		h.pass.Reportf(call.Pos(), "time.Sleep while %s is locked; unlock before sleeping", h.recv)
	}
	if ff := h.pass.Prog.factsFor(fn); ff != nil && ff.lock != "" {
		h.pass.Reportf(call.Pos(), "call to %s may lock %s while %s is locked; a critical section takes no other lock", fn.Name(), ff.lock, h.recv)
	}
	return false
}

// mutexCallExpr matches a sync.(RW)Mutex or sync.Locker
// Lock/RLock/Unlock/RUnlock call and returns the receiver expression
// rendered as a string plus the method name.
func mutexCallExpr(info *types.Info, call *ast.CallExpr) (recv, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name()
	}
	return "", ""
}

// isCondRecv reports whether the method receiver is *sync.Cond, whose
// Wait atomically releases the associated lock and is therefore legal
// under it.
func isCondRecv(sig *types.Signature) bool {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Cond"
}
