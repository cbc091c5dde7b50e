package train

import (
	"math"
	"slices"
	"time"

	"stash/internal/collective"
	"stash/internal/sim"
	"stash/internal/simnet"
)

// skipper finds the period of a real-data run and skips its repeats (see
// Run). At every iteration boundary from iteration 0 on, once the last
// worker has started the iteration and nothing more is due at that
// instant, it encodes the world relative to now. When a boundary encodes
// equal to the one before it, every later iteration repeats the one
// between them until a loader runs out. So the skipper moves every
// worker on by the iterations it can skip and shortens every loader by
// as many, and adds their increments to each worker's clock and waits
// and to the group's busy time.
//
// A run skips twice at most. While its loaders fetch, the repeats last
// until a loader fetches its last batch. Once every loader is drained
// (pipeline.Loader.Drained), each step takes a buffered batch and moves
// no loader traffic, and the repeats last until the buffers run out: the
// drained encoding leaves out the buffer's length, so two drained
// boundaries can match although they hold different counts. A skip
// leaves a loader with nothing more to skip, so the next boundary cannot
// skip. A boundary where some loader has nothing to skip is not encoded:
// it cannot skip, and the next boundary cannot match it, since that
// loader there either still has nothing to skip or has drained since and
// encodes otherwise.
//
// The period is one iteration. A longer one could only come from state
// that alternates between boundaries, and the flow set, which once did
// (swap removals permuted it), is kept in activation order: at seeds 1
// to 3, every real-data run of the registry that repeats a boundary
// within four repeats the one just before it.
type skipper struct {
	eng     *sim.Engine
	net     *simnet.Network
	group   *collective.Group
	workers []*worker
	probeFn func()
	refFn   func(*simnet.Flow) (uint64, bool)

	arrived  int         // workers that started iteration it
	it       int         // the boundary being probed
	arrivals []arrival   // per worker, its start of iteration it
	pending  []sim.Event // probe scratch
	prev     boundary    // the boundary before it
	cur      boundary    // boundary it, once probed

	// The skips made so far: the iterations skipped and the group's busy
	// time over them.
	skipped int
	busy    time.Duration
}

// arrival is a worker's instant and waits as it starts an iteration.
type arrival struct {
	at, dataWait, commWait time.Duration
}

// boundary is the world at an iteration boundary: its encoding (ok false
// if the encoding does not cover it or was not taken), its instant, and
// the running totals a skipped iteration adds to.
type boundary struct {
	ok                 bool
	code               []uint64
	at, busy           time.Duration
	dataWait, commWait []time.Duration // per worker
}

func newSkipper(eng *sim.Engine, net *simnet.Network, group *collective.Group, workers []*worker) *skipper {
	s := &skipper{eng: eng, net: net, group: group, workers: workers, arrivals: make([]arrival, len(workers))}
	s.probeFn = s.probe
	s.refFn = func(f *simnet.Flow) (uint64, bool) { return s.net.FlowRef(f, s.pending) }
	return s
}

// arrive records worker w starting iteration w.it, and probes the
// boundary once every worker has.
func (s *skipper) arrive(w *worker) {
	s.arrivals[w.rank] = arrival{w.eng.Now(), w.dataWait, w.commWait}
	s.arrived++
	if s.arrived < len(s.workers) {
		return
	}
	s.arrived = 0
	s.it = w.it
	s.eng.Schedule(0, s.probeFn)
}

// probe waits until nothing more is due at the boundary's instant, then
// records it and skips if it repeats the boundary before.
func (s *skipper) probe() {
	now := s.eng.Now()
	s.pending = s.eng.AppendPending(s.pending[:0])
	if len(s.pending) > 0 && s.pending[0].At() == now {
		s.eng.Schedule(0, s.probeFn)
		return
	}
	s.prev, s.cur = s.cur, s.prev
	b := &s.cur
	b.at, b.ok = now, false
	if k := s.bound(); k > 0 {
		b.code, b.ok = s.encode(b.code[:0])
		b.busy = s.group.BusyTime()
		b.dataWait, b.commWait = b.dataWait[:0], b.commWait[:0]
		for _, w := range s.workers {
			b.dataWait = append(b.dataWait, w.dataWait)
			b.commWait = append(b.commWait, w.commWait)
		}
		if a := &s.prev; b.ok && a.ok && slices.Equal(a.code, b.code) {
			s.skip(a, b, k)
		}
	}
	if observeProbe != nil {
		observeProbe(s)
	}
}

// observeProbe, when set (by tests), sees the skipper after each probe.
var observeProbe func(*skipper)

// bound returns the iterations after the current one that the world may
// repeat: the fewest any loader may skip before it runs out.
func (s *skipper) bound() int {
	k := math.MaxInt
	for _, w := range s.workers {
		k = min(k, w.loader.Skippable())
	}
	return k
}

// skip skips the k iterations from boundary b on, since the world at b
// repeats the world at a, one iteration earlier, and k is b's bound.
// Each worker's iteration it becomes iteration it+k, with its clock
// shifted and its waits raised by the k iterations'. A warmup boundary
// among them, at it+j, is the worker's start of iteration it repeated j
// iterations later; arrivals hold engine time, which the shift so far
// turns into the worker's clock. Then b is no reference for the next
// boundary: its clocks and waits predate the skip.
func (s *skipper) skip(a, b *boundary, k int) {
	s.skipped += k
	period := b.at - a.at
	s.busy += time.Duration(k) * (b.busy - a.busy)
	for i, w := range s.workers {
		data, comm := b.dataWait[i]-a.dataWait[i], b.commWait[i]-a.commWait[i]
		if j := time.Duration(w.cfg.Warmup - s.it); j > 0 && j <= time.Duration(k) {
			arr := s.arrivals[i]
			w.warmupEnd = arr.at + w.shift + j*period
			w.dataBase, w.commBase = arr.dataWait+j*data, arr.commWait+j*comm
		}
		w.it += k
		w.shift += time.Duration(k) * period
		w.dataWait += time.Duration(k) * data
		w.commWait += time.Duration(k) * comm
		w.loader.Shorten(k)
	}
	b.ok = false
}

// encode appends the encoding of the world now to buf: the pending
// events in dispatch order, each as its offset and its owner's words,
// then the network, then each worker and its loader. It reports false
// if some state is not covered: a collective still running, a worker
// past the start of its forward pass, or an event no owner accounts for.
func (s *skipper) encode(buf []uint64) ([]uint64, bool) {
	if !s.group.Idle() {
		return buf, false
	}
	now := s.eng.Now()
	ok := true
	for _, ev := range s.pending {
		buf = append(buf, uint64(ev.At()-now))
		if rank := s.owner(ev); rank >= 0 {
			buf = append(buf, 0, uint64(rank))
			continue
		}
		if buf, ok = s.net.AppendEvent(buf, ev); !ok {
			return buf, false
		}
	}
	if buf, ok = s.net.AppendState(buf); !ok {
		return buf, false
	}
	for _, w := range s.workers {
		if w.it != s.it || (w.state != wIterStart && w.state != wForwardDone) {
			return buf, false
		}
		buf = append(buf, uint64(w.state), uint64(now-w.t0))
		if buf, ok = w.loader.AppendState(buf, s.refFn); !ok {
			return buf, false
		}
	}
	return buf, true
}

// owner returns the rank of the worker whose forward pass ev is, or -1.
// A worker in any later phase makes the boundary no candidate anyway.
func (s *skipper) owner(ev sim.Event) int {
	for _, w := range s.workers {
		if w.ev == ev {
			return w.rank
		}
	}
	return -1
}
