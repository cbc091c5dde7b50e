// Package lockheld exercises the lockheld analyzer: blocking
// operations and lock acquisitions under a held mutex are flagged —
// directly or behind any call chain; the publish-unlock-wait idiom,
// sequential critical sections, goroutine bodies and sync.Cond.Wait
// are not. The lock-order classes (inversions, recursive acquisition,
// recursive read locking) are in the lockorder fixture.
package lockheld

import (
	"sync"
	"time"
)

type gate struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	wg sync.WaitGroup
}

func (g *gate) badSend(v int) {
	g.mu.Lock()
	g.ch <- v // want `channel send while g\.mu is locked`
	g.mu.Unlock()
}

func (g *gate) badRecvUnderDefer() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-g.ch // want `channel receive while g\.mu is locked`
}

func (g *gate) badSelect(done chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select { // want `select while g\.mu is locked`
	case <-done:
	default:
	}
}

func (g *gate) badWaitGroup() {
	g.mu.Lock()
	g.wg.Wait() // want `sync\.WaitGroup\.Wait while g\.mu is locked`
	g.mu.Unlock()
}

func (g *gate) badSleepUnderRLock() {
	g.rw.RLock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while g\.rw is locked`
	g.rw.RUnlock()
}

func (g *gate) badRangeChan() int {
	sum := 0
	g.mu.Lock()
	defer g.mu.Unlock()
	for v := range g.ch { // want `range over channel while g\.mu is locked`
		sum += v
	}
	return sum
}

func (g *gate) goodUnlockThenWait() int {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	return <-ch
}

// goodUnlockInBranch is the single-flight cache's shape: the lock is
// released inside the hit branch before waiting on the entry.
func (g *gate) goodUnlockInBranch(hit bool) int {
	g.mu.Lock()
	if hit {
		g.mu.Unlock()
		return <-g.ch
	}
	g.ch = make(chan int)
	g.mu.Unlock()
	return 0
}

// badAfterUnlockInBranch: the Unlock in the hit branch ends the region
// for that branch only, so the miss path after it is still held.
func (g *gate) badAfterUnlockInBranch(hit bool) int {
	g.mu.Lock()
	if hit {
		g.mu.Unlock()
		return 0
	}
	g.ch <- 1 // want `channel send while g\.mu is locked`
	g.mu.Unlock()
	return 1
}

func (g *gate) goodGoroutineBody() {
	g.mu.Lock()
	defer g.mu.Unlock()
	go func() { g.ch <- 1 }()
}

func (g *gate) goodTwoMutexes(other *sync.Mutex) int {
	g.mu.Lock()
	g.mu.Unlock()
	other.Lock()
	other.Unlock()
	return <-g.ch
}

func (g *gate) goodCondWait(c *sync.Cond, ready *bool) {
	c.L.Lock()
	for !*ready {
		c.Wait()
	}
	c.L.Unlock()
}

func (g *gate) allowed(v int) {
	g.mu.Lock()
	//lint:allow lockheld buffered handoff channel can never block here
	g.ch <- v
	g.mu.Unlock()
}

// schedule stands in for sim.Engine.Schedule: continuation callbacks are
// function literals handed to a scheduler, not goroutine bodies.
func schedule(fn func()) { fn() }

// badContinuationBody: a continuation callback is an ordinary function
// literal, so blocking under a lock inside it is flagged exactly as in a
// named function (unlike a `go` statement body, it runs on the caller's
// goroutine).
func (g *gate) badContinuationBody() {
	schedule(func() {
		g.mu.Lock()
		g.ch <- 1 // want `channel send while g\.mu is locked`
		g.mu.Unlock()
	})
}

// goodContinuationDeferred: locking around registering the continuation
// is fine — the callback body is scanned on its own and does not inherit
// the registration-time lock.
func (g *gate) goodContinuationDeferred() {
	g.mu.Lock()
	defer g.mu.Unlock()
	schedule(func() {
		g.ch <- 1
	})
}

// ---- the lock summary closes over recursion ---------------------------

var global sync.Mutex

// The lock summary closes over recursion: pingLock and pongLock call
// each other and only pingLock locks, yet both may acquire a lock.
func pingLock(n int) {
	if n > 0 {
		pongLock(n - 1)
	}
	global.Lock()
	global.Unlock()
}

func pongLock(n int) {
	if n > 0 {
		pingLock(n - 1)
	}
}

func (g *gate) badRecursiveHelper() {
	g.mu.Lock()
	pongLock(2) // want `call to pongLock may lock global while g\.mu is locked`
	g.mu.Unlock()
}
