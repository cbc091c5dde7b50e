// Package allowscope pins allow-directive scoping under the
// interprocedural lock summary: //lint:allow is line-local to where a
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
// (may lock p.b) still flows to callers.
func lockBQuiet(p *pair) {
	//lint:allow lockheld scope test: the callee takes b deliberately
	p.b.Lock()
	p.b.Unlock()
}

func badCallerStillFlagged(p *pair) {
	p.a.Lock()
	lockBQuiet(p) // want `call to lockBQuiet may lock p\.b while p\.a is locked; a critical section takes no other lock`
	p.a.Unlock()
}

// The callee's own finding is reported at the callee's line; an allow
// at the caller cannot reach it.
func lockBThenA(p *pair) {
	p.b.Lock()
	p.a.Lock() // want `p\.a\.Lock while p\.b is locked; a critical section takes no other lock`
	p.a.Unlock()
	p.b.Unlock()
}

func callerAllowDoesNotLeak(p *pair) {
	//lint:allow lockheld scope test: suppresses nothing in the callee
	lockBThenA(p)
}
