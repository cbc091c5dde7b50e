package sim

import "fmt"

// The wait primitives below hand control between tasks without parking
// anything: a task that has to wait registers the continuation that
// resumes it, and the wake-up is an ordinary event scheduled at offset 0
// (one per Fire, however many waiters it wakes).

// Signal is a one-shot broadcast: continuations register OnFire, Fire
// wakes them all. Once fired, OnFire runs its callback immediately,
// forever after.
type Signal struct {
	eng   *Engine
	fired bool

	// first and then waiters hold the OnFire continuations in arrival
	// order, so they wake in exactly the order they registered. Most
	// signals have one waiter, which first keeps without a slice.
	first   func()
	waiters []func()
}

// NewSignal returns an unfired signal bound to the engine.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// MakeSignal returns an unfired signal value for embedding into a larger
// struct, saving the separate allocation of NewSignal. Methods are on the
// pointer; embedders hand out &s.
func MakeSignal(e *Engine) Signal { return Signal{eng: e} }

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Fire wakes all current and future waiters. Firing twice is a no-op.
// It may be called from any event callback. The waiters run in one event
// at the current instant, in the order they registered: one event per
// waiter would take consecutive sequence numbers at one instant, so
// nothing could dispatch between them anyway.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	first, waiters := s.first, s.waiters
	s.first, s.waiters = nil, nil
	switch {
	case waiters != nil:
		s.eng.wake(first, waiters)
	case first != nil:
		s.eng.Schedule(0, first)
	}
}

// wakeup is the event of one Fire with several waiters. It holds the
// captured list, not the signal, which its owner may re-make in place
// before the event runs.
type wakeup struct {
	first   func()
	waiters []func()
}

// wake schedules one event at the current instant that runs first and
// then waiters, in order.
func (e *Engine) wake(first func(), waiters []func()) {
	var w *wakeup
	if k := len(e.wakeups); k > 0 {
		w = e.wakeups[k-1]
		e.wakeups[k-1] = nil
		e.wakeups = e.wakeups[:k-1]
	} else {
		w = new(wakeup)
	}
	w.first, w.waiters = first, waiters
	e.ScheduleArg(0, e.wakeFn, w)
}

// runWake runs a wakeup's waiters, then hands the emptied list to the
// next signal that needs one: a collective's W waiters then allocate no
// list per operation.
func (e *Engine) runWake(arg any) {
	w := arg.(*wakeup)
	first, waiters := w.first, w.waiters
	w.first, w.waiters = nil, nil
	e.wakeups = append(e.wakeups, w)
	first()
	for _, fn := range waiters {
		fn()
	}
	clear(waiters)
	e.waiters = waiters[:0]
}

// OnFire registers fn to run when the signal fires: it runs at the
// firing instant, in the one event that wakes the signal's waiters in
// arrival order. If the signal has already fired, fn runs synchronously.
func (s *Signal) OnFire(fn func()) {
	if s.fired {
		fn()
		return
	}
	if s.first == nil {
		s.first = fn
		return
	}
	if s.waiters == nil {
		s.waiters, s.eng.waiters = s.eng.waiters, nil
	}
	s.waiters = append(s.waiters, fn)
}

// Resource is a counting semaphore with a FIFO wait queue.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	queue    []func()
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource capacity %d < 1", capacity))
	}
	return &Resource{eng: e, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Waiting returns the number of acquirers queued for a unit.
func (r *Resource) Waiting() int { return len(r.queue) }

// AcquireFunc claims a unit for fn: synchronously when one is free,
// otherwise fn joins the wait queue and runs once a Release hands it the
// unit.
func (r *Resource) AcquireFunc(fn func()) {
	if r.inUse < r.capacity {
		r.inUse++
		fn()
		return
	}
	r.queue = append(r.queue, fn)
}

// Release returns a unit, scheduling the longest waiter, if any, at the
// current instant.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without matching Acquire")
	}
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		// The unit passes directly to the waiter; inUse stays constant.
		r.eng.Schedule(0, next)
		return
	}
	r.inUse--
}

// Queue is an unbounded FIFO channel between tasks: Put never blocks,
// GetFunc waits while the queue is empty.
type Queue[T any] struct {
	eng     *Engine
	items   []T
	waiters []func()
	closed  bool
}

// NewQueue returns an empty queue bound to the engine.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{eng: e} }

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Waiting reports the number of getters waiting for an item.
func (q *Queue[T]) Waiting() int { return len(q.waiters) }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Put appends an item and wakes one waiting getter, if any. It may be
// called from any event callback.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		panic("sim: Put on closed queue")
	}
	q.items = append(q.items, v)
	q.wakeOne()
}

// Close marks the queue closed: subsequent GetFuncs on an empty queue
// deliver ok=false instead of waiting. Buffered items can still be
// drained.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	waiters := q.waiters
	q.waiters = nil
	for _, w := range waiters {
		q.eng.Schedule(0, w)
	}
}

// Discard drops the n oldest buffered items, 0 <= n <= Len, as if n
// getters had taken them. It wakes no one.
func (q *Queue[T]) Discard(n int) {
	if n < 0 || n > len(q.items) {
		panic(fmt.Sprintf("sim: discard %d of %d queued items", n, len(q.items)))
	}
	q.items = q.items[n:]
}

func (q *Queue[T]) wakeOne() {
	if len(q.waiters) == 0 {
		return
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	q.eng.Schedule(0, w)
}

// GetFunc delivers the oldest item to fn: synchronously when an item is
// buffered (or the queue is closed and drained, with ok=false), otherwise
// once a Put or Close wakes this getter. A woken getter re-checks the
// queue, so several getters keep FIFO fairness.
func (q *Queue[T]) GetFunc(fn func(v T, ok bool)) {
	if len(q.items) == 0 {
		if q.closed {
			var zero T
			fn(zero, false)
			return
		}
		q.waiters = append(q.waiters, func() { q.GetFunc(fn) })
		return
	}
	v := q.items[0]
	q.items = q.items[1:]
	if len(q.items) > 0 {
		q.wakeOne()
	}
	fn(v, true)
}
