package sim

import "time"

// Task is a simulated thread of control expressed as run-to-completion
// continuations: each step is an ordinary event callback that runs,
// schedules its successor (After, Signal.OnFire, Resource.AcquireFunc,
// Queue.GetFunc, or Engine.Schedule directly), and returns. A task never
// parks a goroutine, so stepping one costs an event dispatch and, with a
// long-lived step closure, no allocations. Because every wait is an
// event, a task still waiting when Run stops holds no goroutine either:
// it is garbage once its engine is.
type Task struct {
	eng    *Engine
	name   string
	done   bool
	doneSg *Signal // lazily created; most tasks are never joined
}

// Spawn starts a new task: first is scheduled to run at the current
// virtual time, after already-queued events at this instant. The task
// counts as live (for deadlock detection) until End is called.
func (e *Engine) Spawn(name string, first func()) *Task {
	t := &Task{eng: e, name: name}
	e.live++
	e.Schedule(0, first)
	return t
}

// Engine returns the engine this task runs on.
func (t *Task) Engine() *Engine { return t.eng }

// Name returns the task name given to Spawn.
func (t *Task) Name() string { return t.name }

// Now returns the current virtual time.
func (t *Task) Now() time.Duration { return t.eng.now }

// After schedules fn to run after d of virtual time: the task sleeps,
// and fn is the rest of the step.
func (t *Task) After(d time.Duration, fn func()) Event {
	return t.eng.Schedule(d, fn)
}

// Done reports whether End has been called.
func (t *Task) Done() bool { return t.done }

// End marks the task complete, releasing it from deadlock accounting and
// firing its completion signal. Calling End again is a no-op.
func (t *Task) End() {
	if t.done {
		return
	}
	t.done = true
	t.eng.live--
	if t.doneSg != nil {
		t.doneSg.Fire()
	}
}

// Completion returns a signal that fires when the task ends. Register
// OnFire on it to join the task.
func (t *Task) Completion() *Signal {
	if t.doneSg == nil {
		t.doneSg = NewSignal(t.eng)
		if t.done {
			t.doneSg.Fire()
		}
	}
	return t.doneSg
}
