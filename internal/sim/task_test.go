package sim

import (
	"errors"
	"testing"
	"time"
)

func TestSpawnRunsAfterQueuedEvents(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(0, func() { got = append(got, "queued") })
	e.Spawn("t", func() { got = append(got, "task") }).End()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != "queued" || got[1] != "task" {
		t.Fatalf("order = %v, want [queued task]", got)
	}
}

func TestTaskAfterChain(t *testing.T) {
	e := NewEngine()
	var task *Task
	var times []time.Duration
	step2 := func() {
		times = append(times, e.Now())
		task.End()
	}
	task = e.Spawn("chain", func() {
		times = append(times, e.Now())
		task.After(3*time.Second, step2)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 2 || times[0] != 0 || times[1] != 3*time.Second {
		t.Fatalf("step times = %v, want [0 3s]", times)
	}
	if !task.Done() {
		t.Error("task not done after End")
	}
}

func TestTaskWithoutEndDeadlocks(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func() {}) // never calls End
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
}

func TestTaskCompletion(t *testing.T) {
	e := NewEngine()
	var task *Task
	task = e.Spawn("worker", func() {
		task.After(time.Second, task.End)
	})
	var joinedAt time.Duration = -1
	task.Completion().OnFire(func() { joinedAt = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if joinedAt != time.Second {
		t.Errorf("completion fired at %v, want 1s", joinedAt)
	}
	// Completion after End returns an already-fired signal.
	fired := false
	task.Completion().OnFire(func() { fired = true })
	if !fired {
		t.Error("Completion of ended task did not fire synchronously")
	}
	task.End() // second End is a no-op
	if task.Name() != "worker" || task.Engine() != e {
		t.Error("task accessors broken")
	}
}

// --- RunUntil re-entrancy (exported ErrRunning sentinel) ---

func TestRunInsideCallbackReturnsErrRunning(t *testing.T) {
	e := NewEngine()
	var inner, outer error
	e.Schedule(time.Second, func() {
		inner = e.Run()
	})
	outer = e.Run()
	if outer != nil {
		t.Fatalf("outer Run: %v", outer)
	}
	if !errors.Is(inner, ErrRunning) {
		t.Fatalf("nested Run = %v, want ErrRunning", inner)
	}
}

func TestRunUntilInsideCallbackReturnsErrRunning(t *testing.T) {
	e := NewEngine()
	var inner error
	e.Schedule(0, func() {
		inner = e.RunUntil(5 * time.Second)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(inner, ErrRunning) {
		t.Fatalf("nested RunUntil = %v, want ErrRunning", inner)
	}
	// After the run finishes the engine is reusable.
	fired := false
	e.Schedule(time.Second, func() { fired = true })
	if err := e.Run(); err != nil || !fired {
		t.Fatalf("engine not reusable after nested-run error: err=%v fired=%v", err, fired)
	}
}

// --- pooled-node and ring edge cases ---

func TestCancelAfterFireIsStale(t *testing.T) {
	e := NewEngine()
	fired := 0
	ev := e.Schedule(time.Second, func() { fired++ })
	e.Schedule(2*time.Second, func() {}) // keeps the run going past 1s
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if ev.Pending() {
		t.Error("handle still pending after fire")
	}
	if ev.At() != 0 {
		t.Errorf("At of fired event = %v, want 0", ev.At())
	}
	e.Cancel(ev) // must be a no-op
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after stale cancel, want 0", e.Pending())
	}
}

func TestStaleCancelDoesNotKillNodeReuse(t *testing.T) {
	// Fire A (recycling its node), schedule B (reusing that node), then
	// cancel through A's stale handle: B must still fire.
	e := NewEngine()
	var evA Event
	firedB, firedC := false, false
	evA = e.Schedule(0, func() {})
	e.Schedule(time.Second, func() {
		// The free list is LIFO: the first Schedule reuses this callback's
		// just-recycled node, the second reuses evA's.
		e.Schedule(time.Second, func() { firedB = true })
		e.Schedule(time.Second, func() { firedC = true })
		e.Cancel(evA)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !firedB || !firedC {
		t.Errorf("stale Cancel killed a node's next occupant: B=%v C=%v", firedB, firedC)
	}
}

func TestCancelSameInstantSiblingFromCallback(t *testing.T) {
	// Cancelling a same-instant sibling from inside a firing callback
	// exercises the FIFO-ring tombstone path: the sibling is already in
	// the ring behind the running event.
	e := NewEngine()
	var got []int
	var sibling Event
	e.Schedule(time.Second, func() {
		got = append(got, 1)
		e.Cancel(sibling)
	})
	sibling = e.Schedule(time.Second, func() { got = append(got, 2) })
	e.Schedule(time.Second, func() { got = append(got, 3) })
	// Force all three into the ring by advancing the clock to 1s first:
	// they are heap events here, but the dispatcher moves through them at
	// one instant, so schedule ring events from inside too.
	e.Schedule(time.Second, func() {
		ring := e.Schedule(0, func() { got = append(got, 4) })
		e.Schedule(0, func() { got = append(got, 5) })
		e.Cancel(ring) // tombstones a not-yet-dispatched ring entry
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

func TestScheduleArg(t *testing.T) {
	e := NewEngine()
	var got []int
	fn := func(arg any) { got = append(got, arg.(int)) }
	e.ScheduleArg(2*time.Second, fn, 2)
	e.ScheduleArg(time.Second, fn, 1)
	e.ScheduleArg(-time.Second, fn, 0) // negative delay clamps to now
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPoolReuseKeepsOrdering(t *testing.T) {
	// Drive enough fire/schedule cycles through the pool that nodes are
	// reused many times, and check ordering still holds.
	e := NewEngine()
	var last time.Duration = -1
	ordered := true
	count := 0
	var tick func()
	tick = func() {
		now := e.Now()
		if now < last {
			ordered = false
		}
		last = now
		count++
		if count < 1000 {
			e.Schedule(time.Duration(count%7)*time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ordered {
		t.Error("clock went backwards under pool reuse")
	}
	if count != 1000 {
		t.Errorf("count = %d, want 1000", count)
	}
}
