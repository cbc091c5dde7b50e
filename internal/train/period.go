package train

import (
	"slices"
	"time"

	"stash/internal/collective"
	"stash/internal/sim"
	"stash/internal/simnet"
)

// maxPeriod is the most iterations a real-data period may span. A period
// longer than one iteration comes from the flow set's order: swap
// removals can leave the loaders' flows permuted at one boundary and
// back in order at the next.
const maxPeriod = 4

// skipper finds the period of a real-data run and skips its repeats (see
// Run). At every iteration boundary from Warmup on, once the last worker
// has started the iteration and nothing more is due at that instant, it
// encodes the world relative to now. When a boundary encodes equal to one
// of the maxPeriod before it, every later period repeats the one between
// them until a loader runs out of batches. So the skipper lowers every
// worker's step count and every loader's batch count by the periods it
// can skip, and apply adds their increments to the totals.
type skipper struct {
	eng     *sim.Engine
	net     *simnet.Network
	group   *collective.Group
	workers []*worker
	probeFn func()
	refFn   func(*simnet.Flow) (uint64, bool)

	arrived int         // workers that started iteration it
	it      int         // the boundary being probed
	pending []sim.Event // probe scratch
	hist    []boundary  // the last maxPeriod+1 boundaries, oldest first
	done    bool

	// The skip, once made: iterations skipped, and their increments to
	// the finish instant, the group's busy time and each worker's waits.
	skipped            int
	elapsed, busy      time.Duration
	dataWait, commWait []time.Duration
}

// boundary is the world at an iteration boundary: its encoding (ok false
// if the encoding does not cover it), its instant, and the running
// totals a skipped period adds to.
type boundary struct {
	ok                 bool
	code               []uint64
	at, busy           time.Duration
	dataWait, commWait []time.Duration // per worker
}

func newSkipper(eng *sim.Engine, net *simnet.Network, group *collective.Group, workers []*worker) *skipper {
	s := &skipper{eng: eng, net: net, group: group, workers: workers}
	s.probeFn = s.probe
	s.refFn = func(f *simnet.Flow) (uint64, bool) { return s.net.FlowRef(f, s.pending) }
	return s
}

// arrive counts worker w starting iteration w.it, and probes the
// boundary once every worker has.
func (s *skipper) arrive(w *worker) {
	if s.done || w.it < w.cfg.Warmup {
		return
	}
	s.arrived++
	if s.arrived < len(s.workers) {
		return
	}
	s.arrived = 0
	s.it = w.it
	s.eng.Schedule(0, s.probeFn)
}

// probe waits until nothing more is due at the boundary's instant, then
// records it and skips if it repeats an earlier boundary.
func (s *skipper) probe() {
	now := s.eng.Now()
	s.pending = s.eng.AppendPending(s.pending[:0])
	if len(s.pending) > 0 && s.pending[0].At() == now {
		s.eng.Schedule(0, s.probeFn)
		return
	}
	var b boundary
	if len(s.hist) > maxPeriod {
		b = s.hist[0]
		s.hist = append(s.hist[:0], s.hist[1:]...)
	}
	b.code, b.ok = s.encode(b.code[:0])
	b.at, b.busy = now, s.group.BusyTime()
	b.dataWait, b.commWait = b.dataWait[:0], b.commWait[:0]
	for _, w := range s.workers {
		b.dataWait = append(b.dataWait, w.dataWait)
		b.commWait = append(b.commWait, w.commWait)
	}
	s.hist = append(s.hist, b)
	for p := 1; b.ok && p < len(s.hist); p++ {
		if a := &s.hist[len(s.hist)-1-p]; a.ok && slices.Equal(a.code, b.code) {
			s.skip(a, &b, p)
			break
		}
	}
	if observeProbe != nil {
		observeProbe(s)
	}
}

// observeProbe, when set (by tests), sees the skipper after each probe.
var observeProbe func(*skipper)

// skip skips every whole period of p iterations, from boundary a to b,
// that keeps each loader's fetch index below its batch count, since the
// world at b repeats the world at a until one runs out.
func (s *skipper) skip(a, b *boundary, p int) {
	s.done = true
	n := s.workers[0].total - s.it
	for _, w := range s.workers {
		n = min(n, w.loader.Unfetched()-1)
	}
	m := n / p
	if m <= 0 {
		return
	}
	s.skipped = m * p
	k := time.Duration(m)
	s.elapsed = k * (b.at - a.at)
	s.busy = k * (b.busy - a.busy)
	for i, w := range s.workers {
		w.total -= s.skipped
		w.loader.Shorten(s.skipped)
		s.dataWait = append(s.dataWait, k*(b.dataWait[i]-a.dataWait[i]))
		s.commWait = append(s.commWait, k*(b.commWait[i]-a.commWait[i]))
	}
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

// apply adds the skipped iterations' increments to each worker's finish
// instant and waits, and returns the group's busy time over them.
func (s *skipper) apply() time.Duration {
	if s.skipped == 0 {
		return 0
	}
	for i, w := range s.workers {
		w.finish += s.elapsed
		w.dataWait += s.dataWait[i]
		w.commWait += s.commWait[i]
	}
	return s.busy
}
