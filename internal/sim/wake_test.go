package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// perWaiter is the reference for Signal: a one-shot broadcast whose Fire
// schedules each waiter as its own event at the firing instant.
type perWaiter struct {
	eng     *Engine
	fired   bool
	waiters []func()
}

func (s *perWaiter) OnFire(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.waiters = append(s.waiters, fn)
}

func (s *perWaiter) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, fn := range s.waiters {
		s.eng.Schedule(0, fn)
	}
	s.waiters = nil
}

// wakeStats counts what a wake program exercised.
type wakeStats struct {
	fires        int // fires that woke two waiters or more
	future       int // events scheduled for a later instant by a waiter
	reentered    int // OnFire calls on a fired signal from its own waiter
	remadeAsleep int // signals re-made while the wake of their Fire was pending
}

// wakeProgram runs a random program of four signal slots on a fresh
// engine, on Signals or on the per-waiter reference, and returns the
// trace of its callbacks as instant and id. Each callback, in a budget of
// actions, schedules same-instant and future callbacks, registers
// waiters, fires signals, re-makes a slot's signal in place (as
// FlowGroup.Start re-makes its done signal) and calls OnFire on the
// signal that woke it. Both runs draw the same actions as long as their
// callbacks run in the same order.
func wakeProgram(t *testing.T, seed int64, reference bool) ([]string, wakeStats) {
	const slots = 4
	e := NewEngine()
	rng := rand.New(rand.NewSource(seed))
	var (
		sigs  [slots]Signal
		refs  [slots]perWaiter
		gen   [slots]int  // re-makes of each slot
		count [slots]int  // waiters on each slot's current signal
		fired [slots]bool // each slot's current signal has fired
		// asleep[i] is gen[i]+1 while the wake of slot i's Fire of two
		// waiters or more has not run.
		asleep [slots]int
		trace  []string
		stats  wakeStats
		next   int
		budget = 200
	)
	sig := func(i int) interface {
		OnFire(func())
		Fire()
	} {
		if reference {
			return &refs[i]
		}
		return &sigs[i]
	}
	remake := func(i int) {
		if asleep[i] == gen[i]+1 {
			stats.remadeAsleep++
		}
		gen[i]++
		count[i], fired[i] = 0, false
		sigs[i], refs[i] = MakeSignal(e), perWaiter{eng: e}
	}
	var callback func(slot, g int) func()
	callback = func(slot, g int) func() {
		next++
		id := next
		return func() {
			trace = append(trace, fmt.Sprintf("%v:%d", e.Now(), id))
			if slot >= 0 && asleep[slot] == g+1 {
				asleep[slot] = 0
			}
			for j := rng.Intn(4); j > 0 && budget > 0; j-- {
				budget--
				switch i := rng.Intn(slots); rng.Intn(6) {
				case 0:
					e.Schedule(0, callback(-1, 0))
				case 1:
					e.Schedule(time.Duration(1+rng.Intn(3)), callback(-1, 0))
					stats.future++
				case 2:
					sig(i).OnFire(callback(i, gen[i]))
					count[i]++
				case 3:
					if !fired[i] && count[i] >= 2 {
						asleep[i] = gen[i] + 1
						stats.fires++
					}
					fired[i] = true
					sig(i).Fire()
				case 4:
					remake(i)
				case 5:
					if slot >= 0 {
						if gen[slot] == g {
							stats.reentered++
						}
						sig(slot).OnFire(callback(slot, gen[slot]))
					}
				}
			}
		}
	}
	for i := range slots {
		remake(i)
		for range 1 + rng.Intn(3) {
			sig(i).OnFire(callback(i, gen[i]))
			count[i]++
		}
		e.Schedule(time.Duration(rng.Intn(3)), callback(-1, 0))
	}
	run(t, e)
	return trace, stats
}

// TestSignalWakeMatchesPerWaiter is the differential oracle for waking a
// Fire's waiters in one event: over random programs whose waiters
// schedule same-instant and future events, fire other signals, re-enter
// OnFire on the signal that woke them and re-make signals whose wake is
// pending, every callback runs at the instant and in the order it runs
// when each waiter wakes in its own event.
func TestSignalWakeMatchesPerWaiter(t *testing.T) {
	var total wakeStats
	for seed := int64(1); seed <= 300; seed++ {
		got, stats := wakeProgram(t, seed, false)
		want, _ := wakeProgram(t, seed, true)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: callbacks ran\n%v\nper waiter\n%v", seed, got, want)
		}
		total.fires += stats.fires
		total.future += stats.future
		total.reentered += stats.reentered
		total.remadeAsleep += stats.remadeAsleep
	}
	t.Logf("%+v", total)
	if total.fires == 0 || total.future == 0 || total.reentered == 0 || total.remadeAsleep == 0 {
		t.Errorf("programs exercised %+v, want every count > 0", total)
	}
}
