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
// round that began at a re-arm, while the group's members were alone in
// their components and no other flow joined one, is repeated exactly by
// every later round, shifted in time, whether its members finished
// together or apart. A round that re-armed whole under kept rates and
// ends in one piece touches no other flow, so it is repeated also beside
// plain flows in the members' components (a host-to-GPU upload sharing
// the PCIe root complex with the ring), until one of them falls due. The
// group keeps that round as a template and runs the rest of its transfer
// as one event; a flow that joins one of its components, or falls due
// beside it, first brings back, from the template, the state the stepwise
// path would be in.
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
	id       uint64  // index in Network.links
	capacity float64 // bytes per second
	latency  time.Duration

	// Progressive-filling scratch state. On a root, share is the
	// component's tightest link share in the current pass. unfrozen also
	// counts a group's members per component while alone checks that
	// they are the component's only flows.
	residual float64
	share    float64
	unfrozen int
	marked   bool // a bottleneck of the current filling pass

	// Component state: a union-find forest over the links, joined by
	// every route that carries a flow. A root is its own parent, and its
	// stamp is the epoch of the solve its component was last touched for.
	// On a root, active counts the component's plain flows in the flow
	// set and the members of its running groups, and lone is the one
	// group recording or fast-forwarding its rounds in the component (see
	// rearm): its members are the component's only flows, or, for a
	// group forwarding one-step rounds, its only flows besides plain ones.
	parent *Link
	stamp  uint64
	active int
	lone   *FlowGroup

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
	classes   []latencyClass // by route latency, in the order of their first members

	// Template state (see rearm). The template is the round that began at
	// since; at[k] is the offset from since of the k-th instant at which
	// its members changed (at[0] = 0), steps holds their state from then
	// until the next, one memberState per member, and moved is each
	// member's bytes over the round. While forwarding, the group is in
	// Network.forwarding, its members are out of the flow set, round
	// round started at since, and every round repeats the template
	// shifted by a whole number of periods.
	mode          groupMode
	since, period time.Duration
	at            []time.Duration
	steps         []memberState
	moved         []float64

	// horizon is, while forwarding, the earliest instant at which one of
	// the other flows in the members' components is due (never when the
	// members are alone): by then the group must be back in the flow set
	// (see materializeDue).
	horizon time.Duration
}

// latencyClass is the members of a group whose routes share one latency,
// in member order: Start activates them in one event.
type latencyClass struct {
	latency time.Duration
	members []*Flow
}

// Done returns a signal fired when the current transfer's last round
// completes. Start resets it in place, so a pointer kept across Start
// watches the new transfer.
func (g *FlowGroup) Done() *sim.Signal { return &g.done }

// Completed reports whether every round of the current transfer has
// finished. An idle group that was never started counts as completed.
func (g *FlowGroup) Completed() bool { return g.round == g.rounds }

// groupMode is how a group runs its current round.
type groupMode uint8

const (
	stepwise   groupMode = iota // in the flow set, solved event by event
	recording                   // stepwise, its round kept as the template
	forwarding                  // out of the flow set, repeating the template
)

// memberState is a member's state at one step of its group's template,
// with its instants as offsets from the start of the round.
type memberState struct {
	remaining, rate float64
	settled, due    time.Duration // due is never for a member without progress
	left            bool          // finished its round
}

// end is when a forwarding group's last round finishes.
func (g *FlowGroup) end() time.Duration {
	return g.since + time.Duration(g.rounds-g.round)*g.period
}

// position returns how many whole rounds a forwarding group has run by
// now, capped so that its last round is never counted, and the template
// step it is in: the last one at or before now's offset in that round.
func (g *FlowGroup) position(now time.Duration) (rounds, step int) {
	rounds = int((now - g.since) / g.period)
	if last := g.rounds - g.round - 1; rounds > last {
		rounds = last
	}
	off := now - g.since - time.Duration(rounds)*g.period
	step = len(g.at) - 1
	for g.at[step] > off {
		step--
	}
	return rounds, step
}

// state returns the members' states at template step k.
func (g *FlowGroup) state(k int) []memberState {
	p := len(g.members)
	return g.steps[k*p : (k+1)*p]
}

// snapshot takes the members' state now as the template step at now's
// offset, replacing a step already taken at that offset.
func (g *FlowGroup) snapshot(now time.Duration) {
	off := now - g.since
	if k := len(g.at) - 1; k >= 0 && g.at[k] == off {
		g.at, g.steps = g.at[:k], g.steps[:k*len(g.members)]
	}
	g.at = append(g.at, off)
	for i := range g.members {
		m := &g.members[i]
		due := m.due
		if due != never {
			due -= g.since
		}
		g.steps = append(g.steps, memberState{m.remaining, m.rate, m.settled - g.since, due, m.index < 0})
	}
}

// Network owns a set of links and the flows crossing them.
type Network struct {
	eng         *sim.Engine
	links       []*Link
	flows       []*Flow      // active flows, in activation order
	forwarding  []*FlowGroup // fast-forwarded groups, in the order they began
	recording   []*FlowGroup // groups recording a template round
	finished    []*Flow      // onCompletion scratch
	rearmed     []*FlowGroup // onCompletion scratch: groups whose round re-armed
	completions uint64       // completion events run, stamps FlowGroup.firstLeft
	completion  sim.Event
	dirty       bool

	// epoch counts solves; touch stamps a component's root with the next
	// one, and that solve fills the flows whose root carries it.
	epoch   uint64
	touched bool    // some component was touched since the last solve
	solving []*Flow // recompute scratch: the touched flows, in flow-set order

	// Solver counters: progressive-filling passes run, completions that
	// kept the standing rates, and group rounds that ended without a
	// completion event.
	filled, kept, forwarded uint64

	// Long-lived callbacks, bound once so the per-flow and per-solve
	// scheduling operations never mint closures.
	activateFn      func(arg any)
	activateClassFn func(arg any)
	solveFn         func()
	completionFn    func()
}

// New returns an empty network bound to the engine.
func New(eng *sim.Engine) *Network {
	n := &Network{eng: eng}
	n.activateFn = func(arg any) { n.activate(arg.(*Flow)) }
	n.activateClassFn = func(arg any) {
		for _, m := range arg.(*latencyClass).members {
			n.activate(m)
		}
	}
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
	l := &Link{name: name, id: uint64(len(n.links)), capacity: capacity, latency: latency}
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
	g := &FlowGroup{net: n, members: make([]Flow, len(routes)), moved: make([]float64, len(routes))}
	for i, r := range routes {
		if len(r) == 0 {
			panic("simnet: flow group member with empty route")
		}
		m := &g.members[i]
		*m = Flow{route: r, index: -1, group: g}
		lat := RouteLatency(r)
		k := slices.IndexFunc(g.classes, func(c latencyClass) bool { return c.latency == lat })
		if k < 0 {
			k = len(g.classes)
			g.classes = append(g.classes, latencyClass{latency: lat})
		}
		g.classes[k].members = append(g.classes[k].members, m)
	}
	return g
}

// Start begins a transfer in which each member carries bytesPerMember in
// every one of rounds rounds. Round 0 pays each member's route latency,
// as StartFlow does, and the members whose routes share a latency
// activate in one event, in member order; later rounds start the instant
// the previous one ends, as a streaming pipeline does. Panics while the
// previous transfer is still running, on rounds < 1, or on
// bytesPerMember not above the residual at which a flow counts as
// finished.
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
	// Each member is reset field by field: a whole-struct store would copy
	// the embedded signal too. That signal is never armed: a member
	// finishes through leave, which fires the group's done, never its own.
	now := n.eng.Now()
	for i := range g.members {
		m := &g.members[i]
		m.remaining, m.bytes, m.rate = bytesPerMember, bytesPerMember, 0
		m.settled, m.due, m.started, m.finished = 0, 0, now, 0
		m.index, m.frozen, m.completed, m.root = -1, false, false, nil
	}
	// One event per member would give the members of a class consecutive
	// sequence numbers at one instant, so nothing could run between them.
	for i := range g.classes {
		n.eng.ScheduleArg(g.classes[i].latency, n.activateClassFn, &g.classes[i])
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
	if g := r.lone; g != nil {
		n.join(g)
	}
	for _, l := range f.route[1:] {
		if s := l.find(); s != r {
			if g := s.lone; g != nil {
				n.join(g)
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
// now, one more flow carried per link, back in the flow set, the group
// listed in rearmed), or Done fires after the last round. The end of a
// template round takes each member's bytes over it, what it moved before
// the re-arm. onCompletion plans the re-armed members.
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
		if g.mode == recording {
			g.moved[i] = g.bytes - m.remaining
		}
		for _, l := range m.route {
			l.flowsCarried++
		}
		m.remaining, m.settled = g.bytes, now
		n.push(m)
	}
	g.pending = len(g.members)
	n.rearmed = append(n.rearmed, g)
}

// push appends f to the flow set.
func (n *Network) push(f *Flow) {
	f.index = len(n.flows)
	n.flows = append(n.flows, f)
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
		n.filled++
		fill(flows)
		for _, f := range flows {
			f.plan()
		}
	}
	// A recording group's members hold their roots: no flow joins their
	// components while it records.
	for _, g := range n.recording {
		for i := range g.members {
			if g.members[i].root.stamp == n.epoch {
				g.snapshot(now)
				break
			}
		}
	}
	n.scheduleCompletion()
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

// onCompletion brings back the forwarding groups beside which a flow
// falls due now (see materializeDue), settles every due flow and retires
// those that finished, touches the components that changed, decides how
// each group whose round re-armed here runs its next one (see rearm),
// ends the forwarding groups due now, and re-solves the touched
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
// which the solves since then have not corrected; except when the round
// was a recorded template, whose group rearm forwards out of the flow
// set.
func (n *Network) onCompletion() {
	n.completion = sim.Event{}
	n.completions++
	now := n.eng.Now()
	if len(n.forwarding) > 0 {
		n.materializeDue(now)
	}
	// Collect before acting: re-arming a group appends its members to
	// n.flows, where the scan must not meet them. The scan retires the
	// finished flows by moving each survivor down over them, so the flow
	// set keeps its activation order.
	done := n.finished
	kept := 0
	for i, f := range n.flows {
		if f.due <= now {
			f.settle(now)
			if f.remaining <= epsilonBytes {
				f.index = -1
				done = append(done, f)
				continue
			}
			f.plan()
			if g := f.group; g != nil && g.mode == recording {
				// Changed without a solve, so no snapshot would see it.
				n.stopRecording(g)
			}
		}
		if kept < i {
			f.index = kept
			n.flows[kept] = f
		}
		kept++
	}
	clear(n.flows[kept:])
	n.flows = n.flows[:kept]
	for _, f := range done {
		if f.group == nil {
			n.finish(f)
		} else {
			n.leave(f)
		}
	}
	// Decided once every round that ends here has re-armed: a member that
	// is not its round's last cannot tell whether the rest follow.
	for i, f := range done {
		done[i] = nil
		switch g := f.group; {
		case g == nil:
			n.touch(f)
			f.root.active--
		case g.pending != len(g.members):
			// A round still running, or a last round.
			n.touch(f)
		}
	}
	n.finished = done[:0]
	for _, g := range n.rearmed {
		if g.mode == recording {
			// Its template round just ended: rearm forwards it, taking
			// the members out of the flow set, so no solve or plan of
			// theirs would be used.
			continue
		}
		whole := g.firstLeft == n.completions
		for i := range g.members {
			if m := &g.members[i]; whole {
				// Every member finished here: the kept rates stand.
				m.plan()
			} else {
				// The round ended piecemeal: the solve plans its members.
				n.touch(m)
			}
		}
	}
	// Decided once every touch is in: a flow that finished later in the
	// list may share a component with a group that re-armed earlier.
	for i, g := range n.rearmed {
		n.rearmed[i] = nil
		n.rearm(g)
	}
	n.rearmed = n.rearmed[:0]
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

// rearm decides how group g runs the round it re-armed in this event.
//
// A round that began at a re-arm, with every member's component holding
// only g's members and no flow joining one until the round ended, is a
// template: every later round repeats it exactly, shifted in time. Such a
// round begins with the same flow sets as the template, every member
// full and settled at its start, and filling, settling and planning see
// only those sets and offsets from the start; no other flow touches the
// components meanwhile. So when g's template round ends here, the rest of
// its transfer runs as one event (see forward).
//
// A round is known to be a template already at its re-arm when the whole
// round re-armed under kept rates, every member is due at one instant, and
// settling there leaves each member at most epsilonBytes: then it ends in
// one piece, its one step is its start. Such a round touches no other
// flow, so it is repeated also beside plain flows in the members'
// components, until one of them falls due or a flow joins: g forwards
// with that due as its horizon (see beside). Otherwise g records the
// round it re-armed, if rounds follow it and its members are alone: the
// solves inside a round of several steps re-rate the other flows.
func (n *Network) rearm(g *FlowGroup) {
	now := n.eng.Now()
	if g.mode == recording {
		n.recording = slices.DeleteFunc(n.recording, func(h *FlowGroup) bool { return h == g })
		n.forward(g, now-g.since, never)
		return
	}
	alone := n.alone(g)
	single := g.firstLeft == n.completions && n.oneStep(g)
	horizon := never
	switch {
	case single && !alone:
		var ok bool
		if horizon, ok = n.beside(g); !ok {
			return
		}
	case !alone, !single && g.rounds-g.round < 2:
		return
	}
	g.since = now
	g.at, g.steps = g.at[:0], g.steps[:0]
	g.snapshot(now)
	if single {
		n.forward(g, g.members[0].due-now, horizon)
		return
	}
	// A solve of g's components at this instant takes step 0 again.
	g.mode = recording
	n.recording = append(n.recording, g)
	g.setLone(g)
}

// alone reports whether every component of g's members holds only g's
// members, and leaves each member's root in its root field.
func (n *Network) alone(g *FlowGroup) bool {
	for i := range g.members {
		m := &g.members[i]
		m.root = m.root.find()
		m.root.unfrozen = 0
	}
	for i := range g.members {
		g.members[i].root.unfrozen++
	}
	for i := range g.members {
		if r := g.members[i].root; r.unfrozen != r.active {
			return false
		}
	}
	return true
}

// oneStep reports whether the whole round g just re-armed is a template of
// one step (see rearm), and sets each member's bytes over it.
func (n *Network) oneStep(g *FlowGroup) bool {
	now := n.eng.Now()
	due := g.members[0].due
	dt := (due - now).Seconds()
	for i := range g.members {
		m := &g.members[i]
		if m.due != due || m.root.stamp > n.epoch || g.bytes-progress(m.rate, dt, g.bytes) > epsilonBytes {
			return false
		}
	}
	for i := range g.members {
		g.moved[i] = progress(g.members[i].rate, dt, g.bytes)
	}
	return true
}

// beside reports whether every flow of the components of g's members,
// other than the members, is a plain flow, and no other group records or
// forwards in them; and returns the earliest instant one of those flows
// is due. Those dues move only when a component is touched. alone must
// have left each member's root in its root field.
// The members' roots carry g as lone while their flows are scanned, and
// keep it only if g forwards.
func (n *Network) beside(g *FlowGroup) (time.Duration, bool) {
	for i := range g.members {
		if g.members[i].root.lone != nil {
			return never, false
		}
	}
	g.setLone(g)
	horizon := never
	for _, f := range n.flows {
		if f.group == g {
			continue
		}
		if f.root = f.root.find(); f.root.lone != g {
			continue
		}
		if f.group != nil {
			g.setLone(nil)
			return never, false
		}
		horizon = min(horizon, f.due)
	}
	return horizon, true
}

// setLone sets the lone field of g's members' roots to h.
func (g *FlowGroup) setLone(h *FlowGroup) {
	for i := range g.members {
		g.members[i].root.lone = h
	}
}

// forward takes g's re-armed members out of the flow set, in one pass
// from the lowest of their positions that moves the flows after them
// down in order, and runs the rest of its transfer, each round a copy of
// its template of the given period, as one event at its end, unless a
// flow beside it falls due at horizon first.
func (n *Network) forward(g *FlowGroup, period, horizon time.Duration) {
	kept := len(n.flows)
	for i := range g.members {
		m := &g.members[i]
		kept = min(kept, m.index)
		m.index = -1
		m.root.lone = g
	}
	for _, f := range n.flows[kept:] {
		if f.group != g {
			f.index = kept
			n.flows[kept] = f
			kept++
		}
	}
	clear(n.flows[kept:])
	n.flows = n.flows[:kept]
	g.mode, g.since, g.period, g.horizon = forwarding, n.eng.Now(), period, horizon
	n.forwarding = append(n.forwarding, g)
}

// stopRecording returns recording group g to the stepwise path.
func (n *Network) stopRecording(g *FlowGroup) {
	n.recording = slices.DeleteFunc(n.recording, func(h *FlowGroup) bool { return h == g })
	g.setLone(nil)
	g.mode = stepwise
}

// join brings group g back to the stepwise path before a flow joins one
// of its components.
func (n *Network) join(g *FlowGroup) {
	if g.mode == forwarding {
		n.materialize(g)
	} else {
		n.stopRecording(g)
	}
}

// endForwarded ends the forwarding groups whose last round finishes by
// now: it books their rounds, touches the members' components that still
// hold flows, as the stepwise last round does, so the solve re-rates the
// flows beside them, and fires Done.
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
		for i := range g.members {
			if m := &g.members[i]; m.root.active > 0 {
				n.touch(m)
			}
		}
		g.round = g.rounds
		g.done.Fire()
	}
	clear(n.forwarding[len(running):])
	n.forwarding = running
}

// materialize brings back the stepwise state of forwarding group g
// before a flow joins one of its components: the round the stepwise path
// would be in, in the template step it would be in, shifted to that
// round's start. The round is capped at the last and its final step is
// never taken, so a flow that joins exactly at the group's end finds the
// members that finish last due now, and the pending completion event
// retires them and fires Done, as it would on the stepwise path. Members
// that left earlier in the round stay out of the flow set.
func (n *Network) materialize(g *FlowGroup) {
	n.restore(g, n.eng.Now())
	n.forwarding = slices.DeleteFunc(n.forwarding, func(h *FlowGroup) bool { return h == g })
}

// materializeDue brings back, before a completion event's scan for due
// flows, each forwarding group beside which a flow falls due now, before
// the group's end. The members are in the round that runs up to now: at
// an exact round boundary, the round that ends now, its members due now
// and back in the flow set for the scan to retire and re-arm, as on the
// stepwise path.
func (n *Network) materializeDue(now time.Duration) {
	running := n.forwarding[:0]
	for _, g := range n.forwarding {
		if g.horizon > now || g.end() <= now {
			running = append(running, g)
			continue
		}
		n.restore(g, now-1)
	}
	clear(n.forwarding[len(running):])
	n.forwarding = running
}

// restore takes forwarding group g back to the stepwise path in the
// round and template step it is in at instant t (see position); the
// caller takes g out of the forwarding list.
func (n *Network) restore(g *FlowGroup, t time.Duration) {
	k, step := g.position(t)
	g.unforward(k, k)
	n.forwarded += uint64(k)
	g.round += k
	at := g.since + time.Duration(k)*g.period
	g.pending = 0
	for i, s := range g.state(step) {
		m := &g.members[i]
		m.remaining, m.rate, m.settled, m.due = s.remaining, s.rate, at+s.settled, s.due
		if m.due != never {
			m.due += at
		}
		for _, l := range m.route {
			l.bytesCarried += g.bytes - s.remaining
		}
		if !s.left {
			g.pending++
			n.push(m)
		}
	}
	if g.pending < len(g.members) {
		// The round ends piecemeal: no later event is its first leave.
		g.firstLeft = n.completions
	}
}

// unforward ends g's fast-forward after rounds of it have finished and
// rearms of them re-armed: it books each member's bytes over the rounds
// on its links, one product per member, and one flow per link at each
// re-arm.
func (g *FlowGroup) unforward(rounds, rearms int) {
	g.mode = stepwise
	for i := range g.members {
		m := &g.members[i]
		moved := float64(rounds) * g.moved[i]
		for _, l := range m.route {
			l.bytesCarried += moved
			l.flowsCarried += rearms
		}
		m.root.lone = nil
	}
}

// Counters are the work a network has done since it was made.
type Counters struct {
	Completions uint64 // completion events run
	Filled      uint64 // progressive-filling passes
	Kept        uint64 // completion events that kept the standing rates
	Forwarded   uint64 // group rounds that ended without a completion event
}

// Counters returns the network's work counts.
func (n *Network) Counters() Counters {
	return Counters{Completions: n.completions, Filled: n.filled, Kept: n.kept, Forwarded: n.forwarded}
}

// ActiveFlows reports the number of flows currently competing for
// bandwidth (excludes flows still in their latency phase), counting the
// members of a fast-forwarded group that have not finished their round.
func (n *Network) ActiveFlows() int {
	active := len(n.flows)
	for _, g := range n.forwarding {
		_, step := g.position(n.eng.Now())
		for _, s := range g.state(step) {
			if !s.left {
				active++
			}
		}
	}
	return active
}
