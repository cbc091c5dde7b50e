// Package allowscope pins allow-directive scoping under the
// interprocedural analyzers: //lint:allow is line-local to where a
// finding is REPORTED, so a directive inside a callee never silences a
// caller-side finding derived from that callee's summary, and a
// caller-side directive never silences the callee's own finding.
package allowscope

import "stash/internal/simnet"

// The directive here covers recycleQuiet's own lines only. Its summary
// (flow argument invalidated) still flows to callers.
func recycleQuiet(n *simnet.Network, f *simnet.Flow) {
	//lint:allow poolsafe scope test: the pool owner invalidates deliberately
	n.Recycle(f)
}

func badCallerStillFlagged(n *simnet.Network, f *simnet.Flow) float64 {
	recycleQuiet(n, f)
	return f.Rate() // want `f used after Network\.Recycle \(via recycleQuiet\)`
}

// The callee's own finding is reported at the callee's line; an allow
// at the caller cannot reach it.
func recycleAndUse(n *simnet.Network, f *simnet.Flow) float64 {
	n.Recycle(f)
	return f.Rate() // want `f used after Network\.Recycle`
}

func callerAllowDoesNotLeak(n *simnet.Network, f *simnet.Flow) float64 {
	//lint:allow poolsafe scope test: suppresses nothing in the callee
	return recycleAndUse(n, f)
}
