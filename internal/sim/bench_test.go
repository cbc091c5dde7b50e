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
