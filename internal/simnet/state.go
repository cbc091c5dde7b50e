package simnet

import (
	"math"

	"stash/internal/sim"
)

// The state encoding lets a caller prove that a network repeats itself:
// two instants whose networks encode equal, with equal pending events,
// evolve alike, shifted in time. Every word is relative to the instant
// of encoding; links are named by their index, flows by their position
// in the flow set, which keeps its activation order, or among the
// pending events.

// Event tags and flow reference kinds of the encoding.
const (
	tagCompletion uint64 = iota + 1
	tagActivation

	refCompleted uint64 = 1 << 32
	refActive    uint64 = 2 << 32
	refPending   uint64 = 3 << 32
)

// AppendEvent appends the encoding of pending event ev to buf if it is
// n's: its completion event, or a flow's activation once its startup
// latency ends, named by the flow's size and route. It reports false for
// an event that is not n's, or the activation of a group member. (The
// network is the only scheduler of events whose argument is a *Flow.)
func (n *Network) AppendEvent(buf []uint64, ev sim.Event) ([]uint64, bool) {
	if ev == n.completion {
		return append(buf, tagCompletion), true
	}
	f, ok := ev.Arg().(*Flow)
	if !ok || f.group != nil {
		return buf, false
	}
	buf = append(buf, tagActivation, math.Float64bits(f.remaining))
	return appendRoute(buf, f.route), true
}

// AppendState appends the encoding of n's flows and components to buf
// relative to now: each active flow in activation order with its route,
// the bits of its remaining bytes and rate, and its settled and due
// offsets; then each link's component, named by its first link, and each
// component's count of active flows. Filling, settling and planning read
// only these, and the pending events (AppendEvent) name the rest. The
// remaining bytes are not implied by the rest: the due offset is rounded
// up to the clock's tick, so flows that differ only in them are due at
// one instant until a change of rate sets them apart. It
// reports false where the encoding does not cover the state: a solve
// pending, or a flow group running.
func (n *Network) AppendState(buf []uint64) ([]uint64, bool) {
	if n.dirty || n.touched || len(n.recording) > 0 || len(n.forwarding) > 0 {
		return buf, false
	}
	now := n.eng.Now()
	buf = append(buf, uint64(len(n.flows)))
	for _, f := range n.flows {
		if f.group != nil {
			return buf, false
		}
		due := uint64(math.MaxUint64)
		if f.due != never {
			due = uint64(f.due - now)
		}
		buf = append(buf, math.Float64bits(f.remaining), math.Float64bits(f.rate), uint64(now-f.settled), due)
		buf = appendRoute(buf, f.route)
	}
	first := make([]uint64, len(n.links)) // by root: its component's first link, plus one
	for _, l := range n.links {
		r := l.find()
		if first[r.id] == 0 {
			first[r.id] = l.id + 1
			buf = append(buf, uint64(r.active))
		}
		buf = append(buf, first[r.id])
	}
	return buf, true
}

// FlowRef names flow f in the encoding: nil, completed, its position in
// the flow set, or its position among pending (AppendPending's handles,
// encoded by AppendEvent) while it waits out its startup latency. It
// reports false for a flow in none of these states, a group member out
// of the flow set.
func (n *Network) FlowRef(f *Flow, pending []sim.Event) (uint64, bool) {
	switch {
	case f == nil:
		return 0, true
	case f.completed:
		return refCompleted, true
	case f.index >= 0:
		return refActive | uint64(f.index), true
	}
	for i, ev := range pending {
		if ev.Arg() == any(f) {
			return refPending | uint64(i), true
		}
	}
	return 0, false
}

// appendRoute appends a route's length and link indices.
func appendRoute(buf []uint64, route []*Link) []uint64 {
	buf = append(buf, uint64(len(route)))
	for _, l := range route {
		buf = append(buf, l.id)
	}
	return buf
}
