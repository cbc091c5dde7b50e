// Package simnet models data transfer over a network of capacity-limited
// links using a fluid-flow approximation: at any instant every active flow
// transfers at its max-min fair rate, computed by progressive filling over
// the links of its route. When flows start or finish the rates are
// recomputed, so contention effects (e.g. 16 GPUs sharing one PCIe root
// complex) emerge naturally.
//
// simnet runs on the virtual clock of an internal/sim Engine. Rate
// recomputation is coalesced: any number of flow arrivals and departures
// at one instant trigger a single solve.
//
// Max-min fair rates decompose over the connected components of the
// flow–link graph, so a solve re-fills only the components that a change
// touched and every other flow keeps its rate: a loader's disk read does
// not re-solve an NVLink ring on links it never uses. Components only
// merge: a flow's activation joins the links of its route, and links
// stay joined after it finishes. Filling a union of true components
// gives each one the rates it would get alone, so the merged sets are
// exact, and the routes a workload uses recur, so they stay small.
// Progressive filling is a function of each component's flow set, not
// of its order or of the other components a solve fills beside it.
//
// Each flow is settled on its own: its remaining bytes are kept as of
// the last solve of its component (or its last due instant), and it is
// due when they run out at its rate. So traffic on links never joined
// to a flow's component changes neither its rate nor the instants at
// which it is settled, and cannot move its timestamps.
//
// A FlowGroup runs a set of flows in lockstep rounds (a ring all-reduce
// is 2(p-1) rounds of p neighbor transfers). A round's members re-arm in
// place when its last member finishes. A round whose members all finished
// at that same instant touches no component, so its flows' rates stand. A
// group alone in its component solves the same flow sets in the same
// order every round, so it replays the previous round's rates instead of
// filling. A group alone in its components whose whole round re-armed
// under kept rates repeats that round exactly until its last, so it runs
// them as one event; a flow that joins one of its components first
// brings back the round the stepwise path would be in.
package simnet

import (
	"fmt"
	"math"
	"slices"
	"time"

	"stash/internal/sim"
)

// epsilonBytes is the residual below which a flow counts as finished,
// absorbing the float rounding of settling a flow at its due instant:
// the due instant is rounded up to the clock's tick, but the bytes moved
// by then are a float product.
const epsilonBytes = 1e-6

// maxHorizonSeconds clamps how far ahead a flow is due: far beyond any
// experiment but safely inside time.Duration's range. An enormous flow is
// settled at the horizon and planned again instead of overflowing into a
// negative (immediate) instant.
const maxHorizonSeconds = 1e9 // ~31 years

// never is the due instant of a flow that makes no progress.
const never = time.Duration(math.MaxInt64)

// Link is a unidirectionally-modeled communication link with a fixed
// capacity. (Full-duplex hardware is modeled as two Links or, where the
// paper's contention story is about an aggregate bus budget, one shared
// Link.)
type Link struct {
	name     string
	capacity float64 // bytes per second
	latency  time.Duration

	// Progressive-filling scratch state. On a root, share is the
	// component's tightest link share in the current pass. unfrozen also
	// counts a group's members per component while forward checks that
	// they are alone.
	residual float64
	share    float64
	unfrozen int
	marked   bool // a bottleneck of the current filling pass

	// Component state: a union-find forest over the links, joined by
	// every route that carries a flow. A root is its own parent, and its
	// stamp is the epoch of the solve its component was last touched for.
	// On a root, active counts the component's plain flows in the flow
	// set and the members of its running groups, and forward is a
	// fast-forwarded group with members in the component.
	parent  *Link
	stamp   uint64
	active  int
	forward *FlowGroup

	// Statistics.
	bytesCarried float64
	flowsCarried int
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link capacity in bytes per second.
func (l *Link) Capacity() float64 { return l.capacity }

// Latency returns the link's per-traversal propagation latency.
func (l *Link) Latency() time.Duration { return l.latency }

// BytesCarried returns the total bytes transferred over the link. A flow
// adds its progress when it is settled, which is when its rate changes
// and when it finishes, and a fast-forwarded group adds its rounds when
// it ends or a flow joins it.
func (l *Link) BytesCarried() float64 { return l.bytesCarried }

// FlowsCarried returns the number of flows that have used this link.
func (l *Link) FlowsCarried() int { return l.flowsCarried }

// Flow is an in-flight transfer across a route of links.
type Flow struct {
	route     []*Link
	remaining float64 // as of settled
	bytes     float64
	rate      float64
	settled   time.Duration // the instant remaining is as of
	due       time.Duration // when remaining runs out at rate (see plan)
	index     int           // position in Network.flows, -1 when inactive
	frozen    bool
	completed bool
	started   time.Duration
	finished  time.Duration
	root      *Link      // a link of the flow's component, set on activation
	group     *FlowGroup // owning group of a member flow, nil otherwise
	done      sim.Signal // embedded to keep a flow at one allocation
}

// Done returns a signal fired when the flow completes.
func (f *Flow) Done() *sim.Signal { return &f.done }

// Completed reports whether the flow has finished.
func (f *Flow) Completed() bool { return f.completed }

// Rate returns the flow's current fair-share rate in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

// Duration returns the wall-clock (virtual) time the flow took, valid
// after completion.
func (f *Flow) Duration() time.Duration { return f.finished - f.started }

// Throughput returns achieved bytes/sec over the flow's lifetime, valid
// after completion. Zero-duration flows report +Inf for non-zero sizes.
func (f *Flow) Throughput() float64 {
	d := f.Duration().Seconds()
	//lint:allow floatcmp zero-duration guard against the exact integer-tick conversion, not computed arithmetic
	if d == 0 {
		//lint:allow floatcmp zero-size flows are constructed with the literal 0
		if f.bytes == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return f.bytes / d
}

// progress is the bytes a flow at rate moves in dt seconds, at most its
// remaining bytes.
func progress(rate, dt, remaining float64) float64 {
	moved := rate * dt
	if moved > remaining {
		moved = remaining
	}
	return moved
}

// settle advances f's progress from its last settlement to now at its
// current rate.
func (f *Flow) settle(now time.Duration) {
	if now == f.settled {
		return
	}
	dt := (now - f.settled).Seconds()
	f.settled = now
	moved := progress(f.rate, dt, f.remaining)
	f.remaining -= moved
	for _, l := range f.route {
		l.bytesCarried += moved
	}
}

// plan sets f's due instant: when its remaining bytes run out at its
// rate, rounded up to the clock's tick and clamped to maxHorizonSeconds.
func (f *Flow) plan() {
	if f.rate <= 0 {
		f.due = never
		return
	}
	t := f.remaining / f.rate
	if t > maxHorizonSeconds {
		t = maxHorizonSeconds
	}
	f.due = f.settled + time.Duration(math.Ceil(t*float64(time.Second)))
}

// FlowGroup is a set of member flows that transfer in lockstep rounds.
// Every member carries the same bytes in each round over its own route.
// A round ends when its last member finishes; the next round starts at
// that instant with no startup latency, and Done fires after the last.
// A group has one owner, which runs transfer after transfer over the
// same routes (see NewGroup and Start).
type FlowGroup struct {
	net       *Network
	members   []Flow
	bytes     float64
	rounds    int
	round     int    // rounds finished so far; rounds once complete
	pending   int    // members of the current round still transferring
	firstLeft uint64 // completion event in which the round's first member finished
	done      sim.Signal

	// Fast-forward state (see forward): while the group is in
	// Network.forwarding, its members are out of the flow set, round
	// round started at since, and every round lasts period.
	since, period time.Duration

	// Round replay memo (see solve): step k of the solves made while
	// the group was alone in its component solved flow set
	// memoFlows[memoEnd[k-1]:memoEnd[k]] (memoEnd[-1] = 0), in that order,
	// to memoRates over the same range. Steps before step come from this
	// round, the rest from the last round that reached them.
	step      int // solves made alone so far in this round
	memoEnd   []int
	memoFlows []*Flow // members of this group, in flow-set order
	memoRates []float64
}

// Done returns a signal fired when the current transfer's last round
// completes. Start resets it in place, so a pointer kept across Start
// watches the new transfer.
func (g *FlowGroup) Done() *sim.Signal { return &g.done }

// Completed reports whether every round of the current transfer has
// finished. An idle group that was never started counts as completed.
func (g *FlowGroup) Completed() bool { return g.round == g.rounds }

// end is when a forwarding group's last round finishes.
func (g *FlowGroup) end() time.Duration {
	return g.since + time.Duration(g.rounds-g.round)*g.period
}

// Network owns a set of links and the flows crossing them.
type Network struct {
	eng         *sim.Engine
	links       []*Link
	flows       []*Flow
	forwarding  []*FlowGroup // fast-forwarded groups, in the order they began
	finished    []*Flow      // onCompletion scratch
	completions uint64       // completion events run, stamps FlowGroup.firstLeft
	completion  sim.Event
	dirty       bool

	// epoch counts solves; touch stamps a component's root with the next
	// one, and that solve fills the flows whose root carries it.
	epoch   uint64
	touched bool    // some component was touched since the last solve
	solving []*Flow // recompute scratch: the touched flows, in flow-set order

	// Solver counters: progressive-filling passes run, completions that
	// kept the standing rates, solves replayed from a group's memo, and
	// group rounds that ended without a completion event.
	filled, kept, replayed, forwarded uint64

	// Long-lived callbacks, bound once so the per-flow and per-solve
	// scheduling operations never mint closures.
	activateFn   func(arg any)
	solveFn      func()
	completionFn func()
}

// New returns an empty network bound to the engine.
func New(eng *sim.Engine) *Network {
	n := &Network{eng: eng}
	n.activateFn = func(arg any) { n.activate(arg.(*Flow)) }
	n.solveFn = func() {
		n.dirty = false
		n.recompute()
	}
	n.completionFn = n.onCompletion
	return n
}

// NewLink adds a link with the given capacity (bytes/sec) and latency.
// Panics on a capacity that is not finite and positive, or on a negative
// latency.
func (n *Network) NewLink(name string, capacity float64, latency time.Duration) *Link {
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		panic(fmt.Sprintf("simnet: link %q capacity %v is not finite and positive", name, capacity))
	}
	if latency < 0 {
		panic(fmt.Sprintf("simnet: link %q latency %v < 0", name, latency))
	}
	l := &Link{name: name, capacity: capacity, latency: latency}
	l.parent = l
	n.links = append(n.links, l)
	return l
}

// find returns the root of l's component, halving the path to it.
func (l *Link) find() *Link {
	for l.parent != l {
		l.parent = l.parent.parent
		l = l.parent
	}
	return l
}

// RouteLatency returns the total propagation latency across a route.
func RouteLatency(route []*Link) time.Duration {
	var d time.Duration
	for _, l := range route {
		d += l.latency
	}
	return d
}

// StartFlow begins transferring bytes across route. The flow first waits
// out the route's propagation latency, then competes for bandwidth. The
// returned flow's Done signal fires on completion. A zero-byte flow
// completes after the latency alone. Route must be non-empty unless
// bytes == 0.
func (n *Network) StartFlow(bytes float64, route []*Link) *Flow {
	return n.StartFlowLatency(bytes, route, RouteLatency(route))
}

// StartFlowLatency is StartFlow with an explicit startup latency instead
// of the route's propagation latency. A flow that rides beside another
// transfer's startup (a disk read's IOPS budget beside its bytes) uses
// zero here. Panics on a negative latency.
func (n *Network) StartFlowLatency(bytes float64, route []*Link, latency time.Duration) *Flow {
	if bytes < 0 {
		panic(fmt.Sprintf("simnet: negative flow size %v", bytes))
	}
	if len(route) == 0 && bytes > 0 {
		panic("simnet: non-zero flow with empty route")
	}
	if latency < 0 {
		panic(fmt.Sprintf("simnet: negative flow latency %v", latency))
	}
	f := &Flow{
		route:     route,
		remaining: bytes,
		bytes:     bytes,
		index:     -1,
		started:   n.eng.Now(),
		done:      sim.MakeSignal(n.eng),
	}
	n.eng.ScheduleArg(latency, n.activateFn, f)
	return f
}

// NewGroup returns an idle FlowGroup of one member per route. Its owner
// runs every transfer over these routes with Start, so the members are
// allocated once. Panics on no routes or an empty route.
func (n *Network) NewGroup(routes [][]*Link) *FlowGroup {
	if len(routes) == 0 {
		panic("simnet: flow group with no members")
	}
	g := &FlowGroup{net: n, members: make([]Flow, len(routes))}
	for i, r := range routes {
		if len(r) == 0 {
			panic("simnet: flow group member with empty route")
		}
		g.members[i] = Flow{route: r, index: -1, group: g}
	}
	return g
}

// Start begins a transfer in which each member carries bytesPerMember in
// every one of rounds rounds. Round 0 pays each member's route latency,
// as StartFlow does; later rounds start the instant the previous one
// ends, as a streaming pipeline does. Panics while the previous transfer
// is still running, on rounds < 1, or on bytesPerMember not above the
// residual at which a flow counts as finished.
func (g *FlowGroup) Start(bytesPerMember float64, rounds int) {
	if !g.Completed() {
		panic("simnet: Start of a running flow group")
	}
	if rounds < 1 {
		panic(fmt.Sprintf("simnet: flow group with %d rounds", rounds))
	}
	if !(bytesPerMember > epsilonBytes) {
		panic(fmt.Sprintf("simnet: flow group member size %v <= %v", bytesPerMember, epsilonBytes))
	}
	n := g.net
	g.bytes, g.rounds, g.round, g.pending = bytesPerMember, rounds, 0, len(g.members)
	// The previous transfer's signal has fired, so no waiter is parked on
	// it and resetting it loses none.
	g.done = sim.MakeSignal(n.eng)
	// The memo starts empty for every transfer.
	g.step = 0
	g.memoEnd, g.memoFlows, g.memoRates = g.memoEnd[:0], g.memoFlows[:0], g.memoRates[:0]
	now := n.eng.Now()
	for i := range g.members {
		m := &g.members[i]
		*m = Flow{route: m.route, remaining: bytesPerMember, bytes: bytesPerMember, index: -1, started: now, group: g}
		n.eng.ScheduleArg(RouteLatency(m.route), n.activateFn, m)
	}
}

func (n *Network) activate(f *Flow) {
	for _, l := range f.route {
		l.flowsCarried++
	}
	if f.remaining <= epsilonBytes {
		n.finish(f)
		return
	}
	f.settled = n.eng.Now()
	r := f.route[0].find()
	if g := r.forward; g != nil {
		n.materialize(g)
	}
	for _, l := range f.route[1:] {
		if s := l.find(); s != r {
			if g := s.forward; g != nil {
				n.materialize(g)
			}
			s.parent = r
			r.active += s.active
		}
	}
	r.active++
	f.root = r
	n.touch(f)
	n.push(f)
	n.markDirty()
}

// touch marks f's component for the next solve.
func (n *Network) touch(f *Flow) {
	f.root = f.root.find()
	f.root.stamp = n.epoch + 1
	n.touched = true
}

func (n *Network) finish(f *Flow) {
	f.completed = true
	f.finished = n.eng.Now()
	f.rate = 0
	f.done.Fire()
}

// leave records that group member f finished its round in this
// completion event. When f is the round's last member, the round ends:
// every member re-arms in place for the next round (full size, settled
// now, one more flow carried per link, back in the flow set), or Done
// fires after the last round. A round end also restarts the group's
// replay steps. onCompletion plans the re-armed members.
func (n *Network) leave(f *Flow) {
	g := f.group
	if g.pending == len(g.members) {
		g.firstLeft = n.completions
	}
	g.pending--
	if g.pending > 0 {
		return
	}
	g.round++
	g.step = 0
	if g.round == g.rounds {
		for i := range g.members {
			m := &g.members[i]
			m.root = m.root.find()
			m.root.active--
		}
		g.done.Fire()
		return
	}
	now := n.eng.Now()
	for i := range g.members {
		m := &g.members[i]
		for _, l := range m.route {
			l.flowsCarried++
		}
		m.remaining, m.settled = g.bytes, now
		n.push(m)
	}
	g.pending = len(g.members)
}

// push appends f to the flow set.
func (n *Network) push(f *Flow) {
	f.index = len(n.flows)
	n.flows = append(n.flows, f)
}

// removeFlow drops an active flow by swap-removal.
func (n *Network) removeFlow(f *Flow) {
	last := len(n.flows) - 1
	i := f.index
	n.flows[i] = n.flows[last]
	n.flows[i].index = i
	n.flows[last] = nil
	n.flows = n.flows[:last]
	f.index = -1
}

// markDirty schedules a single rate recomputation at the current instant,
// coalescing any number of same-instant arrivals and departures.
func (n *Network) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	n.eng.Schedule(0, n.solveFn)
}

// recompute re-solves the components touched since the last solve, then
// reschedules the next completion event. It settles the touched flows
// under the rates they had, fills them, and plans them under the new
// ones; every other flow keeps its rate, its settlement and its due
// instant, which a solve of its component would reproduce because none
// of its flows or links changed.
func (n *Network) recompute() {
	// Cancel of a stale or zero handle is a no-op, so no pending check.
	n.eng.Cancel(n.completion)
	n.completion = sim.Event{}
	n.epoch++
	n.touched = false
	now := n.eng.Now()
	flows := n.solving[:0]
	for _, f := range n.flows {
		f.root = f.root.find()
		if f.root.stamp == n.epoch {
			f.settle(now)
			flows = append(flows, f)
		}
	}
	n.solving = flows
	if len(flows) > 0 {
		n.solve(flows)
		for _, f := range flows {
			f.plan()
		}
	}
	n.scheduleCompletion()
}

// solve assigns max-min fair rates to flows, a union of whole
// components. When one group is alone in them and its memo holds this
// step's flow set in this order, the memo's rates are the answer:
// progressive filling reads only the flow set, the flows' routes and the
// link capacities, and a group's routes and every capacity are fixed, so
// filling would reproduce them bit for bit.
func (n *Network) solve(flows []*Flow) {
	g := loneGroup(flows)
	if g != nil && g.replay(flows) {
		n.replayed++
		return
	}
	n.filled++
	fill(flows)
	if g != nil {
		g.record(flows)
	}
}

// fill runs progressive filling over flows, a union of whole components
// whose roots the flows hold. Each pass finds each component's tightest
// link share, marks every link within a 1e-12 relative tolerance of its
// component's share as a bottleneck, and only then freezes every
// unfrozen flow that crosses a marked link at its component's share. The
// marks are taken from the residuals the pass started with, and each
// freeze lowers its links' residuals by the same share, so the rates
// depend on the flow set and not on its order; and no share crosses a
// component, so each component gets the rates it would get filled alone.
// Every link capacity is finite and positive and every route non-empty,
// so each pass finds a finite, non-negative share per component and
// marks at least the link that sets it.
func fill(flows []*Flow) {
	// Reset scratch state on links touched by the flows.
	for _, f := range flows {
		f.rate = 0
		f.frozen = false
		for _, l := range f.route {
			l.residual = l.capacity
			l.unfrozen = 0
		}
	}
	for _, f := range flows {
		for _, l := range f.route {
			l.unfrozen++
		}
	}

	// Every link of an unfrozen flow carries at least that flow, so its
	// unfrozen count is positive below. Marks are set on exactly those
	// links, so a mark left from an earlier pass is never read.
	remaining := len(flows)
	for remaining > 0 {
		// Find each component's tightest link share among links with
		// unfrozen flows.
		for _, f := range flows {
			if !f.frozen {
				f.root.share = math.Inf(1)
			}
		}
		for _, f := range flows {
			if f.frozen {
				continue
			}
			for _, l := range f.route {
				if s := l.residual / float64(l.unfrozen); s < f.root.share {
					f.root.share = s
				}
			}
		}
		for _, f := range flows {
			if f.frozen {
				continue
			}
			limit := f.root.share * (1 + 1e-12)
			for _, l := range f.route {
				l.marked = l.residual/float64(l.unfrozen) <= limit
			}
		}
		// Freeze every unfrozen flow crossing a bottleneck link.
		progressed := false
		for _, f := range flows {
			if f.frozen || !crossesMarked(f) {
				continue
			}
			share := f.root.share
			f.frozen = true
			f.rate = share
			remaining--
			progressed = true
			for _, l := range f.route {
				l.residual -= share
				if l.residual < 0 {
					l.residual = 0
				}
				l.unfrozen--
			}
		}
		if !progressed {
			panic("simnet: progressive filling froze no flow")
		}
	}
}

// crossesMarked reports whether f's route crosses a marked link.
func crossesMarked(f *Flow) bool {
	for _, l := range f.route {
		if l.marked {
			return true
		}
	}
	return false
}

// loneGroup returns the group every flow in the non-empty flows belongs
// to, or nil when there is no such group.
func loneGroup(flows []*Flow) *FlowGroup {
	g := flows[0].group
	if g == nil {
		return nil
	}
	for _, f := range flows[1:] {
		if f.group != g {
			return nil
		}
	}
	return g
}

// replay assigns the memo's rates for this step when its flow set is
// flows in the same order, and reports whether it did.
func (g *FlowGroup) replay(flows []*Flow) bool {
	if g.step >= len(g.memoEnd) {
		return false
	}
	lo, hi := g.memoStart(g.step), g.memoEnd[g.step]
	if hi-lo != len(flows) {
		return false
	}
	for i, f := range g.memoFlows[lo:hi] {
		if flows[i] != f {
			return false
		}
	}
	for i, r := range g.memoRates[lo:hi] {
		flows[i].rate = r
	}
	g.step++
	return true
}

// record stores the rates just filled for flows as this step's memo
// entry, dropping the later steps of an older round.
func (g *FlowGroup) record(flows []*Flow) {
	lo := g.memoStart(g.step)
	g.memoEnd = append(g.memoEnd[:g.step], lo+len(flows))
	g.memoFlows, g.memoRates = g.memoFlows[:lo], g.memoRates[:lo]
	for _, f := range flows {
		g.memoFlows = append(g.memoFlows, f)
		g.memoRates = append(g.memoRates, f.rate)
	}
	g.step++
}

// memoStart is where step k's entries begin in memoFlows and memoRates.
func (g *FlowGroup) memoStart(k int) int {
	if k == 0 {
		return 0
	}
	return g.memoEnd[k-1]
}

// scheduleCompletion schedules the completion event at the earliest due
// flow or forwarding group's end.
func (n *Network) scheduleCompletion() {
	next := never
	for _, f := range n.flows {
		if f.due < next {
			next = f.due
		}
	}
	for _, g := range n.forwarding {
		if e := g.end(); e < next {
			next = e
		}
	}
	if next == never {
		return
	}
	n.completion = n.eng.ScheduleAt(next, n.completionFn)
}

// onCompletion settles every due flow and retires those that finished,
// touches the components that changed, fast-forwards the groups that
// qualify, ends the forwarding groups due now, and re-solves the touched
// components. A due flow that has not finished (its due was clamped at
// the horizon) is planned again. If an activation at this instant is
// pending, its solve covers the final flow set before time moves. If no
// component was touched, the standing rates are kept: only the next
// completion is scheduled.
//
// A finished flow touches its component unless its group's whole round
// finished in this event and re-armed: then each of those components
// holds the flows its last solve saw, on the same routes, and filling
// depends only on the flow set. A round that ended piecemeal and re-arms
// touches every member's component, because the members that left
// earlier come back with the rates of a solve made before they left,
// which the solves since then have not corrected.
func (n *Network) onCompletion() {
	n.completion = sim.Event{}
	n.completions++
	now := n.eng.Now()
	// Collect before acting: re-arming a group appends its members to
	// n.flows, where the swap-removal scan must not meet them.
	done := n.finished
	for i := 0; i < len(n.flows); {
		f := n.flows[i]
		if f.due <= now {
			f.settle(now)
			if f.remaining <= epsilonBytes {
				n.removeFlow(f)
				done = append(done, f)
				continue // swapped element now at i
			}
			f.plan()
		}
		i++
	}
	for _, f := range done {
		if f.group == nil {
			n.finish(f)
		} else {
			n.leave(f)
		}
	}
	// Decided once every round that ends here has re-armed: a member that
	// is not its round's last cannot tell whether the rest follow.
	for _, f := range done {
		g := f.group
		switch {
		case g == nil:
			n.touch(f)
			f.root.active--
		case g.pending != len(g.members):
			// A round still running, or a last round.
			n.touch(f)
		case g.firstLeft != n.completions:
			// A round that ended piecemeal and re-armed: the solve plans
			// its members.
			for j := range g.members {
				n.touch(&g.members[j])
			}
		default:
			// A whole round that re-armed: every member is in the list.
			f.plan()
		}
	}
	// Decided once every touch is in: a flow that finished later in the
	// list may share a component with a group that re-armed earlier. A
	// group whose whole round re-armed here has every member in the list,
	// and its first decides.
	for i, f := range done {
		done[i] = nil
		if g := f.group; g != nil && f == &g.members[0] && g.pending == len(g.members) && g.firstLeft == n.completions {
			n.forward(g)
		}
	}
	n.finished = done[:0]
	if len(n.forwarding) > 0 {
		n.endForwarded(now)
	}
	switch {
	case n.dirty:
		// The pending solve covers the touched components.
	case !n.touched:
		n.kept++
		n.scheduleCompletion()
	default:
		n.recompute()
	}
}

// forward takes g's members out of the flow set and runs the rest of
// its transfer as one event, when the round it just re-armed in one
// piece must repeat unchanged until the last. That holds when every
// member's component holds only g's members and no change touched it,
// so the kept rates stand; every member is due at one instant, so every
// round ends in one piece; and settling there leaves each member at most
// epsilonBytes, so every round retires all of them. Then every round
// lasts the same period.
func (n *Network) forward(g *FlowGroup) {
	now := n.eng.Now()
	due := g.members[0].due
	period := due - now
	dt := period.Seconds()
	for i := range g.members {
		m := &g.members[i]
		m.root = m.root.find()
		if m.due != due || m.root.stamp > n.epoch || g.bytes-progress(m.rate, dt, g.bytes) > epsilonBytes {
			return
		}
		m.root.unfrozen = 0
	}
	for i := range g.members {
		g.members[i].root.unfrozen++
	}
	for i := range g.members {
		if r := g.members[i].root; r.unfrozen != r.active {
			return
		}
	}
	for i := range g.members {
		m := &g.members[i]
		n.removeFlow(m)
		m.root.forward = g
	}
	g.since, g.period = now, period
	n.forwarding = append(n.forwarding, g)
}

// endForwarded ends the forwarding groups whose last round finishes by
// now: it books their rounds and fires Done.
func (n *Network) endForwarded(now time.Duration) {
	running := n.forwarding[:0]
	for _, g := range n.forwarding {
		if g.end() > now {
			running = append(running, g)
			continue
		}
		rounds := g.rounds - g.round
		g.unforward(rounds, rounds-1)
		n.forwarded += uint64(rounds - 1)
		for i := range g.members {
			g.members[i].root.active--
		}
		g.round = g.rounds
		g.done.Fire()
	}
	clear(n.forwarding[len(running):])
	n.forwarding = running
}

// materialize brings back the stepwise state of forwarding group g
// before a flow joins one of its components: the round the stepwise path
// would be in, re-armed where that round began, and due one period
// later. The round is capped at the last, so a flow that joins exactly
// at the group's end finds the members due now and the pending
// completion event retires them and fires Done, as it would on the
// stepwise path.
func (n *Network) materialize(g *FlowGroup) {
	k := int((n.eng.Now() - g.since) / g.period)
	if last := g.rounds - g.round - 1; k > last {
		k = last
	}
	g.unforward(k, k)
	n.forwarding = slices.DeleteFunc(n.forwarding, func(h *FlowGroup) bool { return h == g })
	n.forwarded += uint64(k)
	g.round += k
	at := g.since + time.Duration(k)*g.period
	for i := range g.members {
		m := &g.members[i]
		m.remaining, m.settled, m.due = g.bytes, at, at+g.period
		n.push(m)
	}
}

// unforward ends g's fast-forward after rounds of it have finished and
// rearms of them re-armed: it books each round's bytes per member as the
// stepwise path would, summed round by round so the totals repeat the
// stepwise sums, and one flow per link at each re-arm.
func (g *FlowGroup) unforward(rounds, rearms int) {
	dt := g.period.Seconds()
	for r := 0; r < rounds; r++ {
		for i := range g.members {
			m := &g.members[i]
			moved := progress(m.rate, dt, g.bytes)
			for _, l := range m.route {
				l.bytesCarried += moved
			}
		}
	}
	for i := range g.members {
		m := &g.members[i]
		for _, l := range m.route {
			l.flowsCarried += rearms
		}
		m.root.forward = nil
	}
}

// ActiveFlows reports the number of flows currently competing for
// bandwidth (excludes flows still in their latency phase), counting the
// members of a fast-forwarded group.
func (n *Network) ActiveFlows() int {
	active := len(n.flows)
	for _, g := range n.forwarding {
		active += len(g.members)
	}
	return active
}
