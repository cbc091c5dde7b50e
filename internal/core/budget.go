package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"stash/internal/cloud"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/topo"
)

// budget is the process's one CPU budget: runtime.GOMAXPROCS(0)
// simulation slots, read at every take, so a process that changes
// GOMAXPROCS (as `go test -cpu 1,2` does) gets a budget of the new size.
// Every world is built and run while holding a slot, whether the
// simulation comes from a CLI sweep, a stashd request, a job or a sweep
// worker inside one, so however those nest, no more simulations run at
// once than the process has CPUs. Only that leaf holds a slot: nothing
// that holds one waits on a cache entry, a sweep or a job, so the budget
// cannot deadlock. Waiters are granted slots in arrival order.
var budget struct {
	mu      sync.Mutex
	held    int
	waiters []chan struct{} // closed when its slot is granted
	running atomic.Int64
}

// slot is one held unit of the budget. Only a held slot builds a world.
type slot struct{}

// takeSlot waits for a free slot, or returns ctx.Err() once ctx ends.
// An expired ctx never takes one.
func takeSlot(ctx context.Context) (*slot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	budget.mu.Lock()
	granted := make(chan struct{})
	budget.waiters = append(budget.waiters, granted)
	grant()
	budget.mu.Unlock()
	select {
	case <-granted:
		return &slot{}, nil
	case <-ctx.Done():
	}
	budget.mu.Lock()
	if i := slices.Index(budget.waiters, granted); i >= 0 {
		budget.waiters = slices.Delete(budget.waiters, i, i+1)
		budget.mu.Unlock()
		return nil, ctx.Err()
	}
	budget.mu.Unlock()
	// The slot was granted as ctx ended: give it back.
	(&slot{}).release()
	return nil, ctx.Err()
}

// release gives the slot back.
func (*slot) release() {
	budget.mu.Lock()
	budget.held--
	grant()
	budget.mu.Unlock()
}

// grant hands free slots to the longest waiters. budget.mu is held.
func grant() {
	for len(budget.waiters) > 0 && budget.held < runtime.GOMAXPROCS(0) {
		budget.held++
		close(budget.waiters[0])
		budget.waiters = slices.Delete(budget.waiters, 0, 1)
	}
}

// SimulationsRunning is the number of worlds being built or run across
// the process. Each holds a slot, so it is never more than GOMAXPROCS.
func SimulationsRunning() int64 { return budget.running.Load() }

// World is one simulation's substrate: a fresh engine, its network and
// the topology provisioned on it.
type World struct {
	Engine   *sim.Engine
	Net      *simnet.Network
	Topology *topo.Topology
}

// Simulate waits for a budget slot (returning ctx.Err() if ctx ends
// first), builds a world of count instances of it provisioned by prov,
// runs fn on it and gives the slot back. It is the one way to run a
// simulation outside the Profiler's scenario cache.
func Simulate[T any](ctx context.Context, prov *cloud.Provisioner, it cloud.InstanceType, count int, fn func(World) (T, error)) (T, error) {
	s, err := takeSlot(ctx)
	if err != nil {
		var zero T
		return zero, err
	}
	return simulate(s, prov, it, count, fn)
}

// simulate builds a world on held slot s, runs fn on it and releases s.
func simulate[T any](s *slot, prov *cloud.Provisioner, it cloud.InstanceType, count int, fn func(World) (T, error)) (T, error) {
	defer s.release()
	budget.running.Add(1)
	defer budget.running.Add(-1)
	eng := sim.NewEngine()
	net := simnet.New(eng)
	top, err := prov.Provision(net, it, count)
	if err != nil {
		var zero T
		return zero, err
	}
	w := World{Engine: eng, Net: net, Topology: top}
	res, err := fn(w)
	if observeWorld != nil {
		observeWorld(w)
	}
	return res, err
}

// observeWorld, when set (by tests), sees every world once its
// simulation has run.
var observeWorld func(World)
