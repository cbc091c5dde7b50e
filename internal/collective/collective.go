// Package collective implements gradient-synchronization primitives over
// a simulated topology: the ring all-reduce used by PyTorch DDP (the
// paper's setup, §IV) and a parameter-server baseline (whose performance
// the paper notes is strictly worse, §III). Collectives issued on a group
// execute in FIFO order, one at a time, as NCCL does on a stream.
package collective

import (
	"fmt"
	"time"

	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/topo"
	"stash/internal/trace"
)

// Algorithm selects the synchronization strategy.
type Algorithm int

// Algorithms.
const (
	// Ring is bandwidth-optimal collective all-reduce: 2(p-1) steps of
	// concurrent neighbor transfers of 1/p of the data.
	Ring Algorithm = iota + 1

	// ParameterServer gathers all gradients at a central server and
	// broadcasts the update back.
	ParameterServer
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Ring:
		return "ring-allreduce"
	case ParameterServer:
		return "parameter-server"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// DefaultCallOverhead is the device-side cost of launching one collective
// (NCCL kernel setup). The larger host-side autograd-hook cost lives in
// the training loop (train.Config.HookOverhead), where it blocks the
// backward pass.
const DefaultCallOverhead = 30 * time.Microsecond

// Option configures a Group.
type Option func(*Group)

// WithAlgorithm selects the synchronization algorithm (default Ring).
func WithAlgorithm(a Algorithm) Option {
	return func(g *Group) { g.algorithm = a }
}

// WithCallOverhead overrides the per-collective fixed cost.
func WithCallOverhead(d time.Duration) Option {
	return func(g *Group) { g.callOverhead = d }
}

// WithTrace records the group's synchronization timeline on r: one
// per-rank KindBarrier span per completed collective (that rank's
// arrival to global completion) and one group-level KindCollective span
// (execution start to completion, Worker = -1). These feed the frontier
// blame pass (trace.Attribute).
func WithTrace(r *trace.Recorder) Option {
	return func(g *Group) { g.tr = r }
}

// Group is a set of GPU ranks that synchronize gradients together.
type Group struct {
	eng          *sim.Engine
	net          *simnet.Network
	topology     *topo.Topology
	gpus         []*topo.Device
	algorithm    Algorithm
	callOverhead time.Duration
	tr           *trace.Recorder

	nextSeq   []int // per-rank counter of issued collectives
	ops       map[int]*op
	ready     []*op
	freeOps   []*op // completed op structs awaiting reuse
	executing bool

	x exec // the group's single continuation executor (ops run one at a time)

	// The topology is static, so the ring's flow group (rank i -> rank
	// i+1) and the server paths are built once instead of per collective.
	ring   *simnet.FlowGroup
	psPush [][]*simnet.Link // rank i -> server
	psPull [][]*simnet.Link // server -> rank i

	// Statistics.
	opsCompleted int
	bytesReduced float64
	busyTime     time.Duration
}

type op struct {
	seq     int
	bytes   float64
	arrived int
	done    *sim.Signal

	// arrivals[rank] is when that rank issued this op; populated (and
	// sized) only when the group records a trace.
	arrivals []time.Duration
}

// NewGroup creates a synchronization group over the given GPUs (in rank
// order) of a topology. All GPU pairs that the algorithm needs must be
// routable.
func NewGroup(eng *sim.Engine, net *simnet.Network, t *topo.Topology, gpus []*topo.Device, opts ...Option) (*Group, error) {
	if len(gpus) == 0 {
		return nil, fmt.Errorf("collective: empty group")
	}
	g := &Group{
		eng:          eng,
		net:          net,
		topology:     t,
		gpus:         gpus,
		algorithm:    Ring,
		callOverhead: DefaultCallOverhead,
		nextSeq:      make([]int, len(gpus)),
		ops:          make(map[int]*op),
	}
	for _, o := range opts {
		o(g)
	}
	g.x.init(g)
	// Validate routes up front so failures surface at construction.
	if len(gpus) > 1 {
		switch g.algorithm {
		case Ring:
			for i := range gpus {
				if _, err := t.Route(gpus[i], gpus[(i+1)%len(gpus)]); err != nil {
					return nil, fmt.Errorf("collective: ring: %w", err)
				}
			}
		case ParameterServer:
			server := t.Machines[gpus[0].Node].Host
			for _, gpu := range gpus {
				if gpu.Node == server.Node {
					continue
				}
				if _, err := t.Route(gpu, server); err != nil {
					return nil, fmt.Errorf("collective: ps: %w", err)
				}
			}
		default:
			return nil, fmt.Errorf("collective: unknown algorithm %v", g.algorithm)
		}
	}
	return g, nil
}

// WorldSize returns the number of ranks.
func (g *Group) WorldSize() int { return len(g.gpus) }

// OpsCompleted returns how many collectives have finished.
func (g *Group) OpsCompleted() int { return g.opsCompleted }

// BytesReduced returns the total payload bytes across completed
// collectives.
func (g *Group) BytesReduced() float64 { return g.bytesReduced }

// Idle reports whether every collective issued on the group has
// completed: none is executing, ready or awaiting a rank.
func (g *Group) Idle() bool { return !g.executing && len(g.ready) == 0 && len(g.ops) == 0 }

// BusyTime returns the cumulative wall-clock (virtual) time the group
// spent executing collectives.
func (g *Group) BusyTime() time.Duration { return g.busyTime }

// AllReduceAsync issues rank's next collective carrying bytes of
// gradient. It returns a signal that fires when the collective completes
// globally. The collective starts only after every rank has issued it,
// and collectives execute in issue order.
func (g *Group) AllReduceAsync(rank int, bytes float64) *sim.Signal {
	if rank < 0 || rank >= len(g.gpus) {
		panic(fmt.Sprintf("collective: rank %d out of range [0,%d)", rank, len(g.gpus)))
	}
	seq := g.nextSeq[rank]
	g.nextSeq[rank]++
	o, ok := g.ops[seq]
	if !ok {
		if k := len(g.freeOps); k > 0 {
			o = g.freeOps[k-1]
			g.freeOps[k-1] = nil
			g.freeOps = g.freeOps[:k-1]
			o.seq, o.bytes, o.arrived = seq, bytes, 0
		} else {
			o = &op{seq: seq, bytes: bytes}
		}
		// Each use gets a fresh done signal: callers may retain the
		// previous one well past its op's completion (train holds them
		// until the end-of-iteration drain), so it cannot be re-armed.
		o.done = sim.NewSignal(g.eng)
		if g.tr != nil {
			if cap(o.arrivals) >= len(g.gpus) {
				o.arrivals = o.arrivals[:len(g.gpus)]
			} else {
				o.arrivals = make([]time.Duration, len(g.gpus))
			}
		}
		g.ops[seq] = o
	}
	if g.tr != nil {
		o.arrivals[rank] = g.eng.Now()
	}
	//lint:allow floatcmp ranks must hand in bit-identical sizes; any difference is a caller bug worth a panic
	if o.bytes != bytes {
		panic(fmt.Sprintf("collective: rank %d op %d carries %v bytes, others sent %v", rank, seq, bytes, o.bytes))
	}
	o.arrived++
	if o.arrived == len(g.gpus) {
		delete(g.ops, seq)
		g.ready = append(g.ready, o)
		g.maybeStart()
	}
	return o.done
}

func (g *Group) maybeStart() {
	if g.executing || len(g.ready) == 0 {
		return
	}
	g.executing = true
	o := g.ready[0]
	// Shift down rather than reslice, so the next append reuses the
	// array instead of growing a new one past its end.
	k := copy(g.ready, g.ready[1:])
	g.ready[k] = nil
	g.ready = g.ready[:k]
	g.x.begin(o)
}

// ringGroup builds (once) the flow group over every rank's route to its
// successor. Only this Group starts it, once per ring op, and ops run one
// at a time, so each Start finds the previous transfer finished.
func (g *Group) ringGroup() *simnet.FlowGroup {
	if g.ring == nil {
		world := len(g.gpus)
		routes := make([][]*simnet.Link, world)
		for i := range g.gpus {
			r, err := g.topology.Route(g.gpus[i], g.gpus[(i+1)%world])
			if err != nil {
				// Routes were validated at construction.
				panic(fmt.Sprintf("collective: %v", err))
			}
			routes[i] = r
		}
		g.ring = g.net.NewGroup(routes)
	}
	return g.ring
}

// psRoutes resolves (once) every rank's route to and from the parameter
// server (the lead machine's host).
func (g *Group) psRoutes(toServer bool) [][]*simnet.Link {
	if g.psPush == nil {
		server := g.topology.Machines[g.gpus[0].Node].Host
		g.psPush = make([][]*simnet.Link, len(g.gpus))
		g.psPull = make([][]*simnet.Link, len(g.gpus))
		for i, gpu := range g.gpus {
			up, err := g.topology.Route(gpu, server)
			if err != nil {
				panic(fmt.Sprintf("collective: %v", err))
			}
			down, err := g.topology.Route(server, gpu)
			if err != nil {
				panic(fmt.Sprintf("collective: %v", err))
			}
			g.psPush[i] = up
			g.psPull[i] = down
		}
	}
	if toServer {
		return g.psPush
	}
	return g.psPull
}

// exec runs the group's collectives as a continuation-style state machine
// on the engine's event loop: no goroutine handoffs, and its flow scratch
// and step closure are reused across ops. Ops execute one at a time
// (g.executing), so a single exec per group suffices.
//
// The event footprint per op is a start event at issue, one timer for
// the call overhead, then one await per phase: the ring's flow group, or
// each parameter-server batch of flow starts in rank order. The exec is
// no task of its own: the ranks that wait on its ops are the live tasks
// that deadlock detection counts.
type exec struct {
	g     *Group
	o     *op
	cont  func() // run, bound once
	start time.Duration
	state int

	idx   int            // ps: await progress within flows
	flows []*simnet.Flow // ps: scratch, one slot per rank
}

// exec states.
const (
	xStart       = iota // start event fired; charge call overhead
	xDispatch           // overhead elapsed; choose algorithm
	xRingAwait          // await the ring's flow group; op complete
	xPSPush             // start all gradient pushes to the server
	xPSPushAwait        // await pushes
	xPSPull             // start all parameter pulls from the server
	xPSPullAwait        // await pulls; op complete
)

// init binds the executor to its group.
func (x *exec) init(g *Group) {
	x.g = g
	x.cont = x.run
	x.flows = make([]*simnet.Flow, len(g.gpus))
}

// begin starts executing op o: the op's body runs in a fresh event at the
// current instant, after anything already queued.
func (x *exec) begin(o *op) {
	x.o = o
	x.state = xStart
	x.g.eng.Schedule(0, x.cont)
}

func (x *exec) run() {
	g := x.g
	for {
		switch x.state {
		case xStart:
			x.start = g.eng.Now()
			if len(g.gpus) == 1 {
				// Single rank: DDP skips communication entirely.
				x.finish()
				return
			}
			x.state = xDispatch
			g.eng.Schedule(g.callOverhead, x.cont)
			return

		case xDispatch:
			if x.o.bytes <= 0 {
				x.finish()
				return
			}
			switch g.algorithm {
			case Ring:
				// 2(p-1) steps in which every rank forwards a 1/p chunk
				// to its successor concurrently. A step ends with its
				// slowest route, which is how a single network hop
				// throttles the whole ring (§IV-B2). The first step pays
				// route latency; later steps stream over the already-
				// pipelined path (NCCL slices the chunk so their latency
				// hides behind the previous step's tail).
				world := len(g.gpus)
				g.ringGroup().Start(x.o.bytes/float64(world), 2*(world-1))
				x.state = xRingAwait
			case ParameterServer:
				x.state = xPSPush
			}

		case xRingAwait:
			if done := g.ring.Done(); !done.Fired() {
				done.OnFire(x.cont)
				return
			}
			x.finish()
			return

		case xPSPush, xPSPull:
			// One PS phase: p concurrent full-size transfers through the
			// server's links (push gradients, then pull updates).
			routes := g.psRoutes(x.state == xPSPush)
			for i := range routes {
				x.flows[i] = g.net.StartFlow(x.o.bytes, routes[i])
			}
			x.idx = 0
			x.state++ // the matching await state follows each launch state

		case xPSPushAwait:
			if !x.awaitFlows() {
				return
			}
			x.state = xPSPull

		case xPSPullAwait:
			if !x.awaitFlows() {
				return
			}
			x.finish()
			return
		}
	}
}

// awaitFlows advances x.idx across the current flow batch, subscribing
// the continuation to the first unfinished flow. It reports whether the
// whole batch has completed — false means run must return and will be
// re-entered when the blocking flow finishes.
func (x *exec) awaitFlows() bool {
	for x.idx < len(x.flows) {
		sig := x.flows[x.idx].Done()
		if !sig.Fired() {
			sig.OnFire(x.cont)
			return false
		}
		x.idx++
	}
	return true
}

func (x *exec) finish() {
	g := x.g
	g.busyTime += g.eng.Now() - x.start
	g.opsCompleted++
	g.bytesReduced += x.o.bytes
	g.executing = false
	o := x.o
	done := o.done
	// Barrier spans go out before the op struct is recycled: per rank,
	// arrival to global completion — the raw material of frontier blame
	// attribution — plus the group-level execution span on its own row.
	if g.tr != nil {
		now := g.eng.Now()
		name := fmt.Sprintf("op%d", o.seq)
		for rank := range g.gpus {
			g.tr.Add(trace.Span{Worker: rank, Kind: trace.KindBarrier, Name: name, Start: o.arrivals[rank], End: now})
		}
		g.tr.Add(trace.Span{Worker: -1, Kind: trace.KindCollective, Name: name, Start: x.start, End: now})
	}
	x.o = nil
	// The op struct is reusable immediately — its callers only ever hold
	// the done signal, which each use replaces with a fresh one.
	o.done = nil
	g.freeOps = append(g.freeOps, o)
	done.Fire()
	// maybeStart may re-begin this exec for the next ready op, so the
	// locals above must be captured before it runs.
	g.maybeStart()
}
