// Package lockorder holds the lock-order bug classes — AB/BA inversions
// (direct and behind calls), recursive acquisition and recursive read
// locking — as cases of the lockheld analyzer's one rule: a critical
// section takes no other lock. Each class needs a nested acquisition,
// so each is flagged where the inner lock is taken; consistently
// ordered nesting is flagged too, and sequential regions stay clean.
package lockorder

import "sync"

// Both halves of an AB/BA inversion are flagged on their own.
type server struct {
	mu sync.Mutex
	qu sync.Mutex
}

func (s *server) abOrder() {
	s.mu.Lock()
	s.qu.Lock() // want `s\.qu\.Lock while s\.mu is locked; a critical section takes no other lock`
	s.qu.Unlock()
	s.mu.Unlock()
}

func (s *server) baOrder() {
	s.qu.Lock()
	s.mu.Lock() // want `s\.mu\.Lock while s\.qu is locked`
	s.mu.Unlock()
	s.qu.Unlock()
}

// Consistently ordered nesting is rejected too: a critical section
// takes no other lock.
type tree struct {
	parent sync.Mutex
	child  sync.Mutex
}

func (t *tree) down() {
	t.parent.Lock()
	t.child.Lock() // want `t\.child\.Lock while t\.parent is locked`
	t.child.Unlock()
	t.parent.Unlock()
}

func (t *tree) downDeferred() {
	t.parent.Lock()
	defer t.parent.Unlock()
	t.child.Lock() // want `t\.child\.Lock while t\.parent is locked`
	defer t.child.Unlock()
}

// The inversion hides behind calls: each caller is flagged through the
// callee's summary.
type reg struct{ mu sync.Mutex }
type cache struct{ mu sync.Mutex }

func touchReg(r *reg) {
	r.mu.Lock()
	defer r.mu.Unlock()
}

func touchCache(c *cache) {
	c.mu.Lock()
	defer c.mu.Unlock()
}

func (c *cache) fill(r *reg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	touchReg(r) // want `call to touchReg may lock r\.mu while c\.mu is locked`
}

func (r *reg) sweep(c *cache) {
	r.mu.Lock()
	defer r.mu.Unlock()
	touchCache(c) // want `call to touchCache may lock c\.mu while r\.mu is locked`
}

// Recursive acquisition: sync mutexes are not reentrant.
var global sync.Mutex

func doubleLock() {
	global.Lock()
	global.Lock() // want `global\.Lock while global is locked`
	global.Unlock()
	global.Unlock()
}

func lockGlobal() {
	global.Lock()
	global.Unlock()
}

func recurseViaHelper() {
	global.Lock()
	lockGlobal() // want `call to lockGlobal may lock global while global is locked`
	global.Unlock()
}

// sync.RWMutex forbids recursive read locking: a writer's Lock queued
// between the two RLocks blocks the second one and deadlocks.
var rw sync.RWMutex

func doubleRLock() int {
	rw.RLock()
	rw.RLock() // want `rw\.RLock while rw is locked`
	rw.RUnlock()
	rw.RUnlock()
	return 0
}

// Sequential read regions are fine: the first RUnlock closes the
// region before the second RLock opens.
func sequentialRLock() {
	rw.RLock()
	rw.RUnlock()
	rw.RLock()
	rw.RUnlock()
}
