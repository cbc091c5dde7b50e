package sim

import (
	"testing"
	"time"
)

// BenchmarkEventDispatch measures raw event-loop throughput.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	var chain func()
	n := 0
	chain = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, chain)
		}
	}
	e.Schedule(0, chain)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTaskSwitch measures a task's sleep loop: one event dispatch
// per step, no allocations.
func BenchmarkTaskSwitch(b *testing.B) {
	e := NewEngine()
	var task *Task
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, step)
			return
		}
		task.End()
	}
	task = e.Spawn("sleeper", step)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSameInstantFanOut measures a collective's release: 16
// continuations woken together by one signal, each sleeping to one
// common instant, where the last to wake fires the next round. Per op:
// one Fire, 16 same-instant wakes, 16 sleeps that share one heap slot
// and 16 dispatches, with no allocations.
func BenchmarkSameInstantFanOut(b *testing.B) {
	const w = 16
	e := NewEngine()
	var sig Signal
	rounds, woke := 0, 0
	var round, wake, done func()
	round = func() {
		sig = MakeSignal(e)
		for range w {
			sig.OnFire(wake)
		}
		sig.Fire()
	}
	wake = func() { e.Schedule(time.Microsecond, done) }
	done = func() {
		if woke++; woke < w {
			return
		}
		woke = 0
		if rounds++; rounds < b.N {
			round()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	round()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
