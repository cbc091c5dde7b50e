package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// holdBudget takes every slot of the budget and returns a func, safe to
// call more than once, that gives them back.
func holdBudget(t *testing.T) func() {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var held []*slot
	for len(held) < runtime.GOMAXPROCS(0) {
		s, err := takeSlot(ctx)
		if err != nil {
			t.Fatalf("taking slot %d of GOMAXPROCS = %d: %v", len(held)+1, runtime.GOMAXPROCS(0), err)
		}
		held = append(held, s)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, s := range held {
				s.release()
			}
		})
	}
}

// answers runs fn and fails the test if it does not return within ten
// seconds: with every slot held, a call that waits for one never does.
func answers(t *testing.T, what string, fn func() error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s waited for a simulation slot", what)
	}
}

// TestBudgetIsGOMAXPROCS: the budget has one slot per GOMAXPROCS, read
// at every take, so `go test -cpu 1` runs every sweep on one slot and
// `-cpu 1,2` gets two in its second run.
func TestBudgetIsGOMAXPROCS(t *testing.T) {
	release := holdBudget(t)
	defer release()
	budget.mu.Lock()
	held := budget.held
	budget.mu.Unlock()
	if want := runtime.GOMAXPROCS(0); held != want {
		t.Errorf("budget has %d slots, want GOMAXPROCS = %d", held, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if s, err := takeSlot(ctx); err == nil {
		s.release()
		t.Errorf("took slot %d of a budget of GOMAXPROCS = %d", held+1, held)
	}
}

// TestHeldBudgetAnswersHitsAndWaiters: a cache hit and a single-flight
// wait never take a slot, so both answer while the test holds every
// slot.
func TestHeldBudgetAnswersHitsAndWaiters(t *testing.T) {
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	it := instance(t, "p3.16xlarge")
	// Steps 1 and 2 simulate now and are cached.
	if _, err := p.InterconnectStall(j, it); err != nil {
		t.Fatal(err)
	}
	release := holdBudget(t)
	defer release()

	answers(t, "a cached scenario", func() error {
		_, err := p.InterconnectStall(j, it)
		return err
	})

	// Manufacture an in-flight entry for step 5, which another goroutine
	// would own while holding its own slot, and settle it with step 2's
	// result once the requester selects on its context, which it does
	// only to wait on the entry.
	step2 := scenarioKey{model: j.Model.Name, batch: j.BatchPerGPU, instance: it.Name, count: 1, mode: modeSynthetic}
	step5 := step2
	step5.count, step5.gpusPer = 2, it.NGPUs/2
	e := &cacheEntry{done: make(chan struct{})}
	p.mu.Lock()
	p.cache[step5] = e
	res := p.cache[step2].res
	p.mu.Unlock()
	before := p.Stats()
	ctx := &watchedCtx{Context: context.Background(), selected: make(chan struct{})}
	errc := make(chan error, 1)
	go func() {
		_, err := p.NetworkStallContext(ctx, j, it, 2)
		errc <- err
	}()
	select {
	case <-ctx.selected:
	case <-time.After(10 * time.Second):
		t.Fatal("the requester never waited on the in-flight entry")
	}
	e.res = res
	close(e.done)
	answers(t, "a single-flight waiter", func() error { return <-errc })
	want := before
	want.Requests += 2
	want.CacheHits++
	want.Waits++
	if st := p.Stats(); st != want {
		t.Errorf("stats %v, want %v: step 2 a hit, step 5 a wait", st, want)
	}
}

// watchedCtx closes selected the first time a goroutine asks for its
// Done channel.
type watchedCtx struct {
	context.Context
	once     sync.Once
	selected chan struct{}
}

func (c *watchedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.selected) })
	return c.Context.Done()
}

// TestCancelledSlotWait: a request cancelled while it waits for a slot
// returns ctx.Err(), counts cancelled and leaves no cache entry, so the
// next request for that scenario simulates it.
func TestCancelledSlotWait(t *testing.T) {
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	it := instance(t, "p3.16xlarge")
	release := holdBudget(t)
	defer release()

	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &watchedCtx{Context: parent, selected: make(chan struct{})}
	errc := make(chan error, 1)
	go func() {
		_, err := p.clusterCommStall(ctx, j, it, 1)
		errc <- err
	}()
	select {
	case <-ctx.selected:
	case <-time.After(10 * time.Second):
		t.Fatal("the requester never waited for a slot")
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled slot wait returned %v, want context.Canceled", err)
	}
	if st := p.Stats(); st.Cancelled != 1 || st.Simulated != 0 || st.Balance() != 0 {
		t.Errorf("stats after the cancelled wait: %v", st)
	}
	p.mu.Lock()
	entries := len(p.cache)
	p.mu.Unlock()
	if entries != 0 {
		t.Fatalf("cancelled slot wait left %d cache entries", entries)
	}

	release()
	if _, err := p.InterconnectStall(j, it); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Simulated != 2 || st.Balance() != 0 {
		t.Errorf("stats after the retry: %v, want steps 1 and 2 simulated", st)
	}
}
