// Package allowscope pins allow-directive scoping under the
// interprocedural analyzers: //lint:allow is line-local to where a
// finding is REPORTED, so a directive inside a callee never silences a
// caller-side finding derived from that callee's summary, and a
// caller-side directive never silences the callee's own finding.
package allowscope

import "sync"

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

// The directive here covers lockBQuiet's own lines only. Its summary
// (acquires pair.b) still flows to callers.
func lockBQuiet(p *pair) {
	//lint:allow lockorder scope test: the callee takes b deliberately
	p.b.Lock()
	p.b.Unlock()
}

func badCallerStillFlagged(p *pair) {
	p.a.Lock()
	lockBQuiet(p) // want `lock order cycle: fixture/allowscope\.pair\.b acquired while fixture/allowscope\.pair\.a is held \(via call to lockBQuiet\)`
	p.a.Unlock()
}

// The callee's own finding is reported at the callee's line; an allow
// at the caller cannot reach it.
func lockBThenA(p *pair) {
	p.b.Lock()
	p.a.Lock() // want `lock order cycle: fixture/allowscope\.pair\.a acquired while fixture/allowscope\.pair\.b is held,`
	p.a.Unlock()
	p.b.Unlock()
}

func callerAllowDoesNotLeak(p *pair) {
	//lint:allow lockorder scope test: suppresses nothing in the callee
	lockBThenA(p)
}
