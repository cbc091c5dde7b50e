// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Higher-level code is written as tasks (see task.go): run-to-completion
// continuations that wait on signals, resources and queues (sync.go) by
// registering the callback that resumes them. Everything runs on one
// scheduler with no goroutines, so the whole simulation is sequential and
// reproducible.
//
// Internally events live in pooled, generation-counted nodes: firing or
// cancelling an event returns its node to a free list, so steady-state
// simulation performs no per-event heap allocations. Events for the
// current instant (the dominant Schedule(0, fn) wake-up pattern) bypass
// the priority queue entirely through a FIFO ring. Consecutive schedules
// for one future instant (W tasks woken together, each sleeping to the
// same instant) form a run that holds a single heap slot.
//
// All timestamps are time.Duration offsets from the simulation start.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// ErrDeadlock is returned by Run when live tasks remain but no events
// are scheduled, meaning the simulation can never make progress
// again.
var ErrDeadlock = errors.New("sim: deadlock: live tasks but no pending events")

// ErrRunning is returned by Run and RunUntil when called re-entrantly —
// from inside an event callback, or from a second goroutine while a run
// is in progress.
var ErrRunning = errors.New("sim: engine already running")

const maxDuration = time.Duration(math.MaxInt64)

// eventNode is the pooled storage behind an Event handle. Nodes are
// recycled through the engine's free list when their event fires or is
// cancelled; gen increments on every recycle so stale handles from a
// previous use can never act on the node's next occupant.
type eventNode struct {
	fn    func()
	fnArg func(any)
	arg   any
	at    time.Duration
	seq   uint64     // tiebreaker for deterministic ordering
	gen   uint64     // incremented on recycle; Event handles must match
	next  *eventNode // the run's next member (see Engine.heap)
	pos   int32      // heap index, posFIFO in the ring, posRun behind a run's head, posIdle when free
}

const (
	posIdle int32 = -1
	posFIFO int32 = -2
	posRun  int32 = -3
)

// dead reports whether a ring entry or run member was cancelled in place.
func (n *eventNode) dead() bool { return n.fn == nil && n.fnArg == nil }

// Event is a handle to a scheduled callback. It is a small value (not a
// pointer): the zero Event is valid and refers to nothing. A handle stays
// usable after its event fires or is cancelled — Cancel and the accessors
// recognize it as stale and do nothing — so callers may retain handles
// without lifetime bookkeeping even though the underlying storage is
// pooled and reused.
type Event struct {
	n   *eventNode
	gen uint64
}

// Pending reports whether the event is still scheduled to fire.
func (ev Event) Pending() bool { return ev.n != nil && ev.n.gen == ev.gen }

// At returns the virtual time at which the event will fire, or zero if
// the event already fired or was cancelled.
func (ev Event) At() time.Duration {
	if !ev.Pending() {
		return 0
	}
	return ev.n.at
}

// Arg returns the argument of a pending ScheduleArg event, or nil.
func (ev Event) Arg() any {
	if !ev.Pending() {
		return nil
	}
	return ev.n.arg
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now time.Duration
	seq uint64

	// heap is a 4-ary min-heap over (at, seq) holding the heads of
	// runs of future events. A run is a list of events at one instant
	// with consecutive seqs among that instant's events: a schedule for
	// a future instant joins the run of tail, the event the previous
	// heap-path schedule made, when tail is still pending and due at the
	// same instant. Nothing can sort between two members, since any
	// other schedule in between was for another instant (a FIFO one is
	// for now, before every future instant), so when the head leaves the
	// heap its successor takes its slot with no sift. Cancelled members
	// are tombstoned in place and dropped when they reach the head.
	heap []*eventNode
	tail Event

	// fifo is the same-instant fast path: events scheduled for the
	// current instant are appended here and drained in order (interleaved
	// with any same-instant heap events by seq), skipping heap sifts for
	// the dominant Schedule(0, fn) pattern. fifoHead indexes the next
	// entry; cancelled entries are tombstoned in place and skipped.
	fifo     []*eventNode
	fifoHead int

	free    []*eventNode // recycled nodes
	waiters []func()     // an emptied Signal waiter list, for the next OnFire
	wakeups []*wakeup    // recycled Signal.Fire events
	wakeFn  func(any)    // runWake, bound once

	pending int // scheduled, not-yet-cancelled events
	live    int // tasks that have not ended
	running bool
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	e := &Engine{}
	e.wakeFn = e.runWake
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// alloc takes a node from the free list, minting one only when empty.
func (e *Engine) alloc() *eventNode {
	if n := len(e.free); n > 0 {
		node := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return node
	}
	return &eventNode{pos: posIdle}
}

// recycle invalidates all outstanding handles to n and returns it to the
// free list.
func (e *Engine) recycle(n *eventNode) {
	n.gen++
	n.fn, n.fnArg, n.arg = nil, nil, nil
	n.pos = posIdle
	e.free = append(e.free, n)
}

func (e *Engine) schedule(at time.Duration, fn func(), fnArg func(any), arg any) Event {
	e.seq++
	n := e.alloc()
	n.fn, n.fnArg, n.arg = fn, fnArg, arg
	n.at, n.seq = at, e.seq
	e.pending++
	if at == e.now {
		// Same-instant fast path: seq rises monotonically, so appending
		// keeps the ring in dispatch order with no sifting.
		n.pos = posFIFO
		e.fifo = append(e.fifo, n)
		return Event{n: n, gen: n.gen}
	}
	if t := e.tail.n; t != nil && t.at == at && t.gen == e.tail.gen {
		t.next = n
		n.pos = posRun
	} else {
		e.heapPush(n)
	}
	e.tail = Event{n: n, gen: n.gen}
	return e.tail
}

// Schedule registers fn to run after delay of virtual time. A negative
// delay is treated as zero. Events scheduled for the same instant fire in
// scheduling order.
func (e *Engine) Schedule(delay time.Duration, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return e.schedule(e.now+delay, fn, nil, nil)
}

// ScheduleArg is Schedule for callbacks that take one argument. It exists
// so hot paths can reuse a single long-lived fn instead of minting a
// capturing closure per event: the argument rides in the pooled event
// node, making the whole scheduling operation allocation-free.
func (e *Engine) ScheduleArg(delay time.Duration, fn func(arg any), arg any) Event {
	if delay < 0 {
		delay = 0
	}
	return e.schedule(e.now+delay, nil, fn, arg)
}

// ScheduleAt registers fn to run at absolute virtual time at. Times in the
// past are clamped to now.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) Event {
	if at < e.now {
		at = e.now
	}
	return e.schedule(at, fn, nil, nil)
}

// Cancel removes a pending event so it never fires. Cancelling an event
// that already fired, was already cancelled, or is the zero Event is a
// no-op — including when the event's pooled node has since been reused by
// a newer event, which the handle's generation check detects.
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	if n == nil || n.gen != ev.gen {
		return
	}
	e.pending--
	if n.pos >= 0 {
		e.advance(n)
		e.recycle(n)
		return
	}
	// In the FIFO ring or behind a run's head: tombstone in place (neither
	// can be unlinked cheaply); the dispatcher recycles it when it reaches
	// the front. The generation bump makes any further handle use stale
	// immediately.
	n.gen++
	n.fn, n.fnArg, n.arg = nil, nil, nil
}

// Pending reports the number of events waiting to fire.
func (e *Engine) Pending() int { return e.pending }

// Scheduled reports the number of events scheduled since the engine was
// made, including those cancelled or still pending.
func (e *Engine) Scheduled() uint64 { return e.seq }

// AppendPending appends handles to the pending events to buf in the
// order they will fire, and returns the extended slice.
func (e *Engine) AppendPending(buf []Event) []Event {
	start := len(buf)
	for _, n := range e.fifo[e.fifoHead:] {
		if !n.dead() {
			buf = append(buf, Event{n: n, gen: n.gen})
		}
	}
	for _, n := range e.heap {
		for ; n != nil; n = n.next {
			if !n.dead() {
				buf = append(buf, Event{n: n, gen: n.gen})
			}
		}
	}
	slices.SortFunc(buf[start:], func(a, b Event) int {
		if eventLess(a.n, b.n) {
			return -1
		}
		return 1
	})
	return buf
}

// next prunes cancelled ring entries and returns the next event to
// dispatch without removing it, or nil when none remain.
func (e *Engine) next() *eventNode {
	for e.fifoHead < len(e.fifo) {
		if n := e.fifo[e.fifoHead]; n.dead() {
			e.fifoHead++
			e.recycle(n)
			continue
		}
		break
	}
	if e.fifoHead == len(e.fifo) {
		e.fifo = e.fifo[:0]
		e.fifoHead = 0
	}
	var f *eventNode
	if e.fifoHead < len(e.fifo) {
		f = e.fifo[e.fifoHead]
	}
	if len(e.heap) == 0 {
		return f
	}
	h := e.heap[0]
	if f == nil || eventLess(h, f) {
		return h
	}
	return f
}

// advance replaces the run head n in its heap slot by n's first live
// successor, recycling the tombstones before it, or removes the slot
// when the run ends.
func (e *Engine) advance(n *eventNode) {
	s := n.next
	n.next = nil
	for s != nil && s.dead() {
		dead := s
		s, dead.next = s.next, nil
		e.recycle(dead)
	}
	i := int(n.pos)
	if s == nil {
		e.heapRemove(i)
		return
	}
	e.heap[i] = s
	s.pos = int32(i)
}

// Run dispatches events until none remain. It returns ErrDeadlock if live
// tasks remain blocked with no way to wake them, and
// ErrRunning when called re-entrantly.
func (e *Engine) Run() error {
	return e.RunUntil(maxDuration)
}

// RunUntil dispatches events with timestamps <= limit, then advances the
// clock to limit if it ran out of events earlier. It returns ErrDeadlock
// if it stops with live tasks still blocked and no pending
// events, and ErrRunning when called re-entrantly (from an event callback
// or while another RunUntil is in progress).
func (e *Engine) RunUntil(limit time.Duration) error {
	if e.running {
		return ErrRunning
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		n := e.next()
		if n == nil {
			if e.live > 0 {
				return ErrDeadlock
			}
			if limit != maxDuration && limit > e.now {
				e.now = limit
			}
			return nil
		}
		if n.at > limit {
			if limit > e.now {
				e.now = limit
			}
			return nil
		}
		if n.at < e.now {
			// Queue invariants guarantee this cannot happen; guard anyway.
			panic(fmt.Sprintf("sim: event at %v fired after clock %v", n.at, e.now))
		}
		switch { // take n from the ring or the heap
		case n.pos == posFIFO:
			e.fifoHead++
		case n.next == nil:
			e.heapPop()
		default:
			e.advance(n)
		}
		e.pending--
		e.now = n.at
		fn, fnArg, arg := n.fn, n.fnArg, n.arg
		// Recycle before dispatch: the handle is stale the moment the
		// event fires, and the callback may immediately want a fresh node.
		e.recycle(n)
		if fn != nil {
			fn()
		} else {
			fnArg(arg)
		}
	}
}

// eventLess orders events by (time, sequence number).
func eventLess(a, b *eventNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The priority queue is a hand-rolled 4-ary min-heap: shallower than a
// binary heap (fewer cache-missing levels per sift) and free of the
// container/heap interface boxing that allocated on every Push.

func (e *Engine) heapPush(n *eventNode) {
	n.pos = int32(len(e.heap))
	e.heap = append(e.heap, n)
	e.siftUp(len(e.heap) - 1)
}

// heapPop removes the minimum element (heap[0]).
func (e *Engine) heapPop() {
	last := len(e.heap) - 1
	if last > 0 {
		e.heap[0] = e.heap[last]
		e.heap[0].pos = 0
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if last > 1 {
		e.siftDown(0)
	}
}

// heapRemove removes the element at index i.
func (e *Engine) heapRemove(i int) {
	last := len(e.heap) - 1
	if i != last {
		moved := e.heap[last]
		e.heap[i] = moved
		moved.pos = int32(i)
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if i < last {
		e.siftDown(i)
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	n := e.heap[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := e.heap[parent]
		if !eventLess(n, p) {
			break
		}
		e.heap[i] = p
		p.pos = int32(i)
		i = parent
	}
	e.heap[i] = n
	n.pos = int32(i)
}

func (e *Engine) siftDown(i int) {
	n := e.heap[i]
	size := len(e.heap)
	for {
		first := i<<2 + 1
		if first >= size {
			break
		}
		min := first
		end := first + 4
		if end > size {
			end = size
		}
		for c := first + 1; c < end; c++ {
			if eventLess(e.heap[c], e.heap[min]) {
				min = c
			}
		}
		if !eventLess(e.heap[min], n) {
			break
		}
		e.heap[i] = e.heap[min]
		e.heap[i].pos = int32(i)
		i = min
	}
	e.heap[i] = n
	n.pos = int32(i)
}
