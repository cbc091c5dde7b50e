package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refEvent is the reference model's view of one scheduled event.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
	ev  Event

	fired, cancelled bool
}

// refEngine drives an Engine with random schedules, cancels and RunUntil
// limits, and checks it against a reference that keeps every live event
// and sorts them by (at, seq).
type refEngine struct {
	t    *testing.T
	rng  *rand.Rand
	e    *Engine
	seq  uint64
	ref  []*refEvent
	last time.Duration // the instant of the previous schedule

	// cancels counts the cancels made of each kind of queued event.
	cancels map[string]int
}

// live returns the live events in dispatch order.
func (r *refEngine) live() []*refEvent {
	var live []*refEvent
	for _, x := range r.ref {
		if !x.fired && !x.cancelled {
			live = append(live, x)
		}
	}
	slices.SortFunc(live, func(a, b *refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	return live
}

// schedule adds an event through one of the three entry points. Half
// the time it reuses the previous instant, so runs form often; the rest
// it draws one of a few instants from now on, now itself included.
func (r *refEngine) schedule(depth int) {
	e := r.e
	at := r.last
	if at < e.Now() || r.rng.Intn(2) == 0 {
		at = e.Now() + time.Duration(r.rng.Intn(4))*time.Millisecond
	}
	r.last = at
	x := &refEvent{at: at, id: len(r.ref)}
	fire := func() { r.fire(x, depth) }
	switch r.rng.Intn(3) {
	case 0:
		x.ev = e.Schedule(at-e.Now(), fire)
	case 1:
		x.ev = e.ScheduleArg(at-e.Now(), func(any) { fire() }, nil)
	default:
		x.ev = e.ScheduleAt(at, fire)
	}
	r.seq++
	x.seq = r.seq
	r.ref = append(r.ref, x)
}

// fire checks that x is the reference's next event, then schedules and
// cancels more from inside the callback, as tasks do.
func (r *refEngine) fire(x *refEvent, depth int) {
	live := r.live()
	if len(live) == 0 || live[0] != x || r.e.Now() != x.at {
		r.t.Fatalf("dispatched event %d at %v (clock %v), want the first of %d live", x.id, x.at, r.e.Now(), len(live))
	}
	x.fired = true
	if depth < 3 {
		for k := r.rng.Intn(4); k > 0; k-- {
			r.schedule(depth + 1)
		}
	}
	if r.rng.Intn(3) == 0 {
		r.cancel()
	}
}

// cancel cancels one live event of a random kind: a run's head (in the
// heap, with members behind it), one of its members, the engine's run
// tail, an entry of the FIFO ring, or any event, fired ones included.
func (r *refEngine) cancel() {
	kinds := []string{"head", "member", "tail", "fifo", "any"}
	kind := kinds[r.rng.Intn(len(kinds))]
	var pick []*refEvent
	for _, x := range r.ref {
		if x.fired || x.cancelled {
			if kind == "any" {
				pick = append(pick, x)
			}
			continue
		}
		n := x.ev.n
		switch kind {
		case "head":
			if n.pos >= 0 && n.next != nil {
				pick = append(pick, x)
			}
		case "member":
			if n.pos == posRun && n != r.e.tail.n {
				pick = append(pick, x)
			}
		case "tail":
			if n == r.e.tail.n {
				pick = append(pick, x)
			}
		case "fifo":
			if n.pos == posFIFO {
				pick = append(pick, x)
			}
		default:
			pick = append(pick, x)
		}
	}
	if len(pick) == 0 {
		return
	}
	x := pick[r.rng.Intn(len(pick))]
	r.e.Cancel(x.ev)
	x.cancelled = x.cancelled || !x.fired
	r.cancels[kind]++
}

// checkPending compares AppendPending and Pending with the reference.
func (r *refEngine) checkPending(buf []Event) []Event {
	live := r.live()
	buf = r.e.AppendPending(buf[:0])
	if len(buf) != len(live) || r.e.Pending() != len(live) {
		r.t.Fatalf("%d pending handles, Pending() %d, want %d", len(buf), r.e.Pending(), len(live))
	}
	for i, x := range live {
		if buf[i] != x.ev {
			r.t.Fatalf("pending[%d] at %v, want event %d at %v", i, buf[i].At(), x.id, x.at)
		}
	}
	return buf
}

// TestEngineMatchesReference is the differential oracle for the
// engine's queues: over random schedules through every entry point,
// cancels of run heads, members, tails and FIFO entries (from outside
// and from inside callbacks), and RunUntil limits on, just before and
// just after the instants that hold runs, every dispatch is the
// reference's next event and every AppendPending lists the reference's
// live events in order.
func TestEngineMatchesReference(t *testing.T) {
	cancels := map[string]int{}
	joins := 0
	for seed := int64(1); seed <= 300; seed++ {
		r := &refEngine{t: t, rng: rand.New(rand.NewSource(seed)), e: NewEngine(), cancels: cancels}
		for k := 8 + r.rng.Intn(16); k > 0; k-- {
			r.schedule(0)
		}
		var buf []Event
		for {
			if r.rng.Intn(2) == 0 {
				r.cancel()
			}
			buf = r.checkPending(buf)
			for _, ev := range buf {
				if ev.n.pos == posRun {
					joins++
				}
			}
			live := r.live()
			if len(live) == 0 {
				break
			}
			limit := live[r.rng.Intn(len(live))].at + time.Duration(r.rng.Intn(3)-1)
			if err := r.e.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
			if next := r.live(); len(next) > 0 && next[0].at <= limit {
				t.Fatalf("seed %d: RunUntil(%v) left event %d at %v", seed, limit, next[0].id, next[0].at)
			}
		}
	}
	t.Logf("cancels %v, run members seen %d", cancels, joins)
	// Every kind of cancel, and runs, must have been exercised.
	for _, kind := range []string{"head", "member", "tail", "fifo", "any"} {
		if cancels[kind] < 50 {
			t.Errorf("only %d %s cancels", cancels[kind], kind)
		}
	}
	if joins < 1000 {
		t.Errorf("only %d run members seen pending", joins)
	}
}

// TestSameInstantFanOutHoldsOneHeapSlot: W continuations woken together
// that each sleep to one common instant (a collective releasing its
// ranks into the next compute phase) form one run in a single heap slot,
// and still wake in the order they slept.
func TestSameInstantFanOutHoldsOneHeapSlot(t *testing.T) {
	const w = 16
	e := NewEngine()
	s := NewSignal(e)
	var order []int
	for i := range w {
		s.OnFire(func() {
			e.Schedule(time.Millisecond, func() { order = append(order, i) })
		})
	}
	e.Schedule(time.Millisecond, s.Fire)
	if err := e.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(e.heap) != 1 || e.Pending() != w {
		t.Fatalf("%d sleepers in %d heap slots, want %d in 1", e.Pending(), len(e.heap), w)
	}
	run(t, e)
	for i, v := range order {
		if v != i {
			t.Fatalf("woke in order %v, want ascending", order)
		}
	}
	if len(order) != w {
		t.Fatalf("%d of %d woke", len(order), w)
	}
}
