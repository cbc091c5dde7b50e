// Package poolsafe exercises the poolsafe analyzer against the real
// pooled-lifecycle APIs: use-after-recycle on flows and flow groups,
// Signal.Rearm with a parked waiter, and the interprocedural variants
// where the invalidation happens inside a helper frames below the use.
package poolsafe

import (
	"stash/internal/sim"
	"stash/internal/simnet"
)

// ---- flows: Network.Recycle -------------------------------------------

func badUseAfterRecycle(n *simnet.Network, r []*simnet.Link) float64 {
	f := n.StartFlow(1024, r)
	n.Recycle(f)
	return f.Rate() // want `f used after Network\.Recycle`
}

func goodRecycleLast(n *simnet.Network, r []*simnet.Link) float64 {
	f := n.StartFlow(1024, r)
	v := f.Rate()
	n.Recycle(f)
	return v
}

func goodReacquire(n *simnet.Network, r []*simnet.Link) float64 {
	f := n.StartFlow(1024, r)
	n.Recycle(f)
	f = n.StartFlow(2048, r) // reassignment re-validates the handle
	return f.Rate()
}

// Any-path semantics: recycling in one branch poisons the join.
func badBranchRecycle(n *simnet.Network, r []*simnet.Link, done bool) float64 {
	f := n.StartFlow(1024, r)
	if done {
		n.Recycle(f)
	}
	return f.Rate() // want `f used after Network\.Recycle`
}

// A recycling branch that returns does not poison the other path.
func goodGuardedRecycle(n *simnet.Network, r []*simnet.Link, done bool) float64 {
	f := n.StartFlow(1024, r)
	if done {
		n.Recycle(f)
		return 0
	}
	return f.Rate()
}

// The free-list owner's own loop is clean: each flow is recycled and
// never touched again in that iteration.
func goodRecycleSweep(n *simnet.Network, flows []*simnet.Flow) {
	for _, f := range flows {
		n.Recycle(f)
	}
}

// fallthrough is not a terminator: an invalidation before it flows
// into the next case body.
func badFallthroughRecycle(n *simnet.Network, r []*simnet.Link, k int) float64 {
	f := n.StartFlow(1024, r)
	switch k {
	case 0:
		n.Recycle(f)
		fallthrough
	case 1:
		return f.Rate() // want `f used after Network\.Recycle`
	}
	return 0
}

// Using the handle before the fallthrough and recycling in the
// fallen-into case is clean.
func goodFallthroughOrder(n *simnet.Network, r []*simnet.Link, k int) float64 {
	f := n.StartFlow(1024, r)
	v := 0.0
	switch k {
	case 0:
		v = f.Rate()
		fallthrough
	case 1:
		n.Recycle(f)
	}
	return v
}

// ---- flow groups: Network.RecycleGroup --------------------------------

func badUseAfterRecycleGroup(n *simnet.Network, r [][]*simnet.Link) bool {
	g := n.StartGroup(r, 1024, 2)
	n.RecycleGroup(g)
	return g.Completed() // want `g used after Network\.RecycleGroup`
}

func goodRecycleGroupLast(n *simnet.Network, r [][]*simnet.Link) bool {
	g := n.StartGroup(r, 1024, 2)
	done := g.Completed()
	n.RecycleGroup(g)
	return done
}

// ---- interprocedural: the invalidation is frames below ----------------

func recycleIt(n *simnet.Network, f *simnet.Flow) {
	n.Recycle(f)
}

func recycleDeep(n *simnet.Network, f *simnet.Flow) {
	recycleIt(n, f)
}

func badRecycleViaHelper(n *simnet.Network, r []*simnet.Link) float64 {
	f := n.StartFlow(1024, r)
	recycleIt(n, f)
	return f.Rate() // want `f used after Network\.Recycle \(via recycleIt\)`
}

func badRecycleTwoFramesDown(n *simnet.Network, r []*simnet.Link) float64 {
	f := n.StartFlow(1024, r)
	recycleDeep(n, f)
	return f.Rate() // want `f used after Network\.Recycle \(via recycleDeep\)`
}

// ---- signals: Rearm with a parked waiter ------------------------------

func badRearmParked(e *sim.Engine) {
	s := sim.NewSignal(e)
	s.OnFire(func() {})
	s.Rearm() // want `Rearm of s while a waiter registered at line \d+ may still be parked`
}

func goodRearmAfterFire(e *sim.Engine) {
	s := sim.NewSignal(e)
	s.OnFire(func() {})
	s.Fire()
	s.Rearm()
}

func rearmIt(s *sim.Signal) {
	s.Rearm()
}

func badRearmViaHelper(e *sim.Engine) {
	s := sim.NewSignal(e)
	s.OnFire(func() {})
	rearmIt(s) // want `Rearm of s \(via rearmIt\) while a waiter registered at line \d+`
}

// ---- the escape hatch still works, reason mandatory -------------------

func allowedPeek(n *simnet.Network, r []*simnet.Link) bool {
	f := n.StartFlow(1024, r)
	n.Recycle(f)
	//lint:allow poolsafe the free-list owner reads the completed bit before reuse
	return f.Completed()
}
