package sim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// run drives the engine and fails the test on error.
func run(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSignalAwaitAndFire: every waiter wakes at the firing instant, in
// the order it registered (the first is kept apart from the rest).
func TestSignalAwaitAndFire(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var woke [3]time.Duration
	var order []int
	for i := range woke {
		var task *Task
		task = e.Spawn("waiter", func() {
			s.OnFire(func() {
				woke[i] = e.Now()
				order = append(order, i)
				task.End()
			})
		})
	}
	var firer *Task
	firer = e.Spawn("firer", func() {
		firer.After(3*time.Second, func() {
			s.Fire()
			firer.End()
		})
	})
	run(t, e)
	for i, w := range woke {
		if w != 3*time.Second {
			t.Errorf("waiter %d woke at %v, want 3s", i, w)
		}
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("waiters woke in order %v, want [0 1 2]", order)
	}
	if !s.Fired() {
		t.Error("signal not marked fired")
	}
}

func TestAwaitAlreadyFired(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	s.Fire()
	s.Fire() // double fire is a no-op
	var woke time.Duration = -1
	var task *Task
	task = e.Spawn("late", func() {
		task.After(time.Second, func() {
			s.OnFire(func() { woke = e.Now() }) // must run synchronously
			task.End()
		})
	})
	run(t, e)
	if woke != time.Second {
		t.Errorf("late waiter woke at %v, want 1s", woke)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var holds []time.Duration
	for i := 0; i < 3; i++ {
		var task *Task
		task = e.Spawn("worker", func() {
			r.AcquireFunc(func() {
				holds = append(holds, e.Now())
				task.After(time.Second, func() {
					r.Release()
					task.End()
				})
			})
		})
	}
	run(t, e)
	want := []time.Duration{0, time.Second, 2 * time.Second}
	if len(holds) != len(want) {
		t.Fatalf("holds = %v", holds)
	}
	for i := range want {
		if holds[i] != want[i] {
			t.Fatalf("holds = %v, want %v (serialized)", holds, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var done []time.Duration
	for i := 0; i < 4; i++ {
		var task *Task
		task = e.Spawn("worker", func() {
			r.AcquireFunc(func() {
				task.After(time.Second, func() {
					r.Release()
					done = append(done, e.Now())
					task.End()
				})
			})
		})
	}
	run(t, e)
	// Two run in [0,1), two in [1,2).
	want := []time.Duration{time.Second, time.Second, 2 * time.Second, 2 * time.Second}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if r.InUse() != 0 {
		t.Errorf("InUse = %d after all released", r.InUse())
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	var consumer *Task
	var get func()
	get = func() {
		q.GetFunc(func(v int, ok bool) {
			if !ok {
				consumer.End()
				return
			}
			got = append(got, v)
			get()
		})
	}
	consumer = e.Spawn("consumer", get)
	var producer *Task
	i := 0
	var put func()
	put = func() {
		q.Put(i)
		if i++; i == 5 {
			q.Close()
			producer.End()
			return
		}
		producer.After(time.Second, put)
	}
	producer = e.Spawn("producer", func() { producer.After(time.Second, put) })
	run(t, e)
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 items", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want FIFO order", got)
		}
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	total := 0
	for i := 0; i < 3; i++ {
		var task *Task
		var next func()
		next = func() {
			q.GetFunc(func(v int, ok bool) {
				if !ok {
					task.End()
					return
				}
				total += v
				task.After(time.Second, next)
			})
		}
		task = e.Spawn("consumer", next)
	}
	var producer *Task
	producer = e.Spawn("producer", func() {
		for i := 1; i <= 9; i++ {
			q.Put(i)
		}
		q.Close()
		producer.End()
	})
	run(t, e)
	if total != 45 {
		t.Errorf("total = %d, want 45", total)
	}
}

func TestQueueCloseUnblocksGetters(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	unblocked := 0
	for i := 0; i < 2; i++ {
		var task *Task
		task = e.Spawn("consumer", func() {
			q.GetFunc(func(_ int, ok bool) {
				if !ok {
					unblocked++
				}
				task.End()
			})
		})
	}
	var closer *Task
	closer = e.Spawn("closer", func() {
		closer.After(time.Second, func() {
			q.Close()
			closer.End()
		})
	})
	run(t, e)
	if unblocked != 2 {
		t.Errorf("unblocked = %d, want 2", unblocked)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var task *Task
	task = e.Spawn("stuck", func() {
		s.OnFire(task.End) // never fired
	})
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("Run = %v, want ErrDeadlock", err)
	}
}

// TestSignalWaiterListReused: a fired signal's wake event hands its
// emptied waiter list to the next signal that needs one, so a round of W
// waiters allocates nothing once warm, and signals waited on at the same
// time still wake their own waiters in order.
func TestSignalWaiterListReused(t *testing.T) {
	e := NewEngine()
	var order []int
	a, b := NewSignal(e), NewSignal(e)
	for i := range 3 {
		a.OnFire(func() { order = append(order, i) })
		b.OnFire(func() { order = append(order, 10+i) })
	}
	b.Fire()
	c := NewSignal(e) // b's wake still holds b's list, a holds its own
	for i := range 3 {
		c.OnFire(func() { order = append(order, 20+i) })
	}
	a.Fire()
	c.Fire()
	run(t, e)
	want := []int{10, 11, 12, 0, 1, 2, 20, 21, 22}
	if !slices.Equal(order, want) {
		t.Errorf("woke %v, want %v", order, want)
	}

	var s Signal
	nop := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		s = MakeSignal(e)
		for range 16 {
			s.OnFire(nop)
		}
		s.Fire()
		run(t, e)
	})
	if allocs != 0 {
		t.Errorf("a round of 16 waiters allocates %v times, want 0", allocs)
	}
}
