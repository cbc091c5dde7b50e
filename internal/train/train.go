// Package train simulates synchronous data-parallel DNN training (the
// paper's PyTorch-DDP setup, §IV) on a simulated cluster: per-layer
// forward/backward compute on each GPU, gradient bucketing with
// communication overlapped into the backward pass, ring all-reduce over
// the topology, and optionally the full input pipeline (disk, cache, CPU
// prep, PCIe upload).
//
// Training can run on synthetic pre-populated data (no input pipeline,
// as in Stash's steps 1, 2 and 5) or on real data through per-worker
// dataloaders (DS-Analyzer's steps 3 and 4).
package train

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"stash/internal/collective"
	"stash/internal/dnn"
	"stash/internal/hw"
	"stash/internal/pipeline"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/topo"
	"stash/internal/trace"
	"stash/internal/workload"
)

// Config describes one training run.
type Config struct {
	Job workload.Job

	// Topology is the provisioned cluster.
	Topology *topo.Topology

	// GPUs are the participating workers in rank order. Leave nil to use
	// every GPU in the topology. Stash's step 1 passes a single GPU of a
	// multi-GPU machine here.
	GPUs []*topo.Device

	// Iterations is the number of measured optimizer steps. The Result
	// reads as if Warmup+Iterations steps ran, even from one period (Run).
	Iterations int

	// Synthetic pre-populates training data in GPU memory, eliminating
	// all pipeline stages before the GPU (steps 1, 2, 5).
	Synthetic bool

	// Pipelines maps machine node index to its input pipeline; required
	// when Synthetic is false for every machine that hosts a worker.
	Pipelines map[int]*pipeline.HostPipeline

	// CacheMode selects cold (step 3) or warm (step 4) caches for
	// real-data runs.
	CacheMode pipeline.CacheMode

	// Buckets overrides gradient bucketing; nil uses per-layer buckets.
	Buckets []collective.Bucket

	// CollectiveOptions configures the gradient-synchronization group
	// (algorithm, call overhead).
	CollectiveOptions []collective.Option

	// DisableOverlap makes every bucket's all-reduce block the backward
	// pass (no communication/computation overlap). Profilers set this on
	// clusters where transfers stage through host memory (PCIe peer
	// traffic, network paths), where real stacks lose the overlap; see
	// topo.Topology.SupportsAsyncCollectives.
	DisableOverlap bool

	// HookOverhead is the host-side cost DDP's autograd hook charges the
	// backward pass per gradient bucket, regardless of overlap. Zero uses
	// DefaultHookOverhead; negative disables it.
	HookOverhead time.Duration

	// Warmup is the number of leading iterations excluded from timing
	// (pipeline fill, first-touch effects). The run executes
	// Warmup+Iterations optimizer steps, or fewer that stand for that
	// many, warmup steps included (Run).
	Warmup int

	// EveryIteration simulates every step, even those that provably
	// repeat a period of a synthetic or real-data run (see Run). The audit
	// sets it to check that both paths agree.
	EveryIteration bool

	// CompressionRatio scales the gradient bytes each bucket carries,
	// modeling lossy gradient compression (top-k / quantization) schemes
	// from the communication-reduction literature the paper surveys
	// (SIII). 0 or 1 means no compression; 0.25 sends a quarter of the
	// bytes. Compute time is unaffected.
	CompressionRatio float64

	// Trace, when non-nil, records the per-worker execution timeline.
	// The collective group also records per-rank barrier spans on it,
	// which is what makes frontier blame attribution (trace.Attribute)
	// lossless.
	Trace *trace.Recorder

	// StragglerRank and StragglerScale inject a synthetic straggler:
	// when StragglerScale > 1, the worker at StragglerRank runs all its
	// GPU compute (forward, backward segments and tail, optimizer) slower
	// by that factor, so every other rank piles up comm-wait behind it.
	// 0 (or 1) disables the injection. Run rejects with
	// ErrStragglerScale a value below 1, one that is not finite, and one
	// so large that the workers' summed time would overflow the
	// simulated clock.
	StragglerRank  int
	StragglerScale float64
}

// ErrStragglerScale is the error Run wraps when Config.StragglerScale
// cannot be injected.
var ErrStragglerScale = errors.New("straggler scale out of range")

// DefaultHookOverhead is the per-bucket host-side synchronization cost of
// the framework's gradient hook (Python autograd callback + NCCL enqueue
// serialization). Fitted so the per-layer stall slope of deep models
// matches the paper's Fig 16a.
const DefaultHookOverhead = 250 * time.Microsecond

// Result reports a completed run.
type Result struct {
	// Elapsed is the wall-clock (virtual) time from start to the last
	// worker finishing.
	Elapsed time.Duration

	// Iterations and WorldSize echo the configuration.
	Iterations int
	WorldSize  int

	// PerIteration is Elapsed / Iterations.
	PerIteration time.Duration

	// ComputePerWorker is the pure GPU compute time each worker spent
	// (identical across workers; an injected straggler's scaled compute
	// is not reflected here).
	ComputePerWorker time.Duration

	// DataWaitMax is the largest per-worker time spent blocked on the
	// input pipeline (fetch+prep+upload backpressure).
	DataWaitMax time.Duration

	// CommWaitMax is the largest per-worker time spent blocked on
	// gradient synchronization after backward compute finished.
	CommWaitMax time.Duration

	// CommBusy is the total time the collective group spent executing.
	CommBusy time.Duration

	// SamplesPerSecond is the aggregate training throughput.
	SamplesPerSecond float64
}

// Run executes the configured training on the engine that the topology's
// network lives on, driving the simulation to completion. The Result is
// as if Warmup+Iterations steps ran.
//
// One period: unless EveryIteration is set, Run does not simulate the
// steps of an untraced, straggler-free run that provably repeat, and
// link counters on the network then cover only the simulated steps.
//
//   - A synthetic run repeats exactly from iteration zero, since each
//     collective releases every rank at once with nothing left in
//     flight. Run simulates one step and scales it in integer
//     nanoseconds: the measured durations by Iterations, and CommBusy,
//     which counts warmup steps too, by Warmup+Iterations.
//   - A real-data run carries loader and network state across steps, so
//     Run finds its period instead. At every iteration boundary from
//     iteration 0 on, it encodes the world relative to that instant:
//     workers, loaders, flows and pending events. When a boundary
//     encodes equal to the one before it, every later step repeats the
//     one between them until a loader runs out. Run skips those steps,
//     warmup steps or measured ones, adds their increments to the
//     workers' clocks and waits and to CommBusy, and places a warmup
//     boundary among them where the repeats put it. It does so twice at
//     most: first over the steps that keep each loader's fetch index
//     below its batch count, then, once every loader has queued its last
//     batch for its worker, over the steps that take a queued batch. It
//     simulates the steps between and the last one exactly (see
//     skipper).
func Run(eng *sim.Engine, net *simnet.Network, cfg Config) (*Result, error) {
	r, err := start(eng, net, cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return r.result(), nil
}

// run is a training run set up on an engine, ready to simulate.
type run struct {
	cfg           *Config // as simulated: one step of a one-period run
	iters, warmup int     // the steps the Result reads as
	onePeriod     bool
	plan          *iterationPlan
	group         *collective.Group
	workers       []*worker
	skip          *skipper // nil unless the run may skip periods
}

// start validates cfg, builds the run's collective group, workers and
// loaders on the engine, and spawns their tasks.
func start(eng *sim.Engine, net *simnet.Network, cfg Config) (*run, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("train: nil topology")
	}
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("train: iterations %d < 1", cfg.Iterations)
	}
	if cfg.Warmup < 0 {
		return nil, fmt.Errorf("train: warmup %d < 0", cfg.Warmup)
	}
	switch {
	case cfg.HookOverhead == 0:
		cfg.HookOverhead = DefaultHookOverhead
	case cfg.HookOverhead < 0:
		cfg.HookOverhead = 0
	}
	switch {
	//lint:allow floatcmp 0 is the unset-field sentinel of the zero Config, not a computed value
	case cfg.CompressionRatio == 0:
		cfg.CompressionRatio = 1
	case !(cfg.CompressionRatio > 0 && cfg.CompressionRatio <= 1): // NaN too
		return nil, fmt.Errorf("train: compression ratio %v outside (0, 1]", cfg.CompressionRatio)
	}
	if err := cfg.Job.Model.Validate(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	gpus := cfg.GPUs
	if gpus == nil {
		gpus = cfg.Topology.AllGPUs()
	}
	if len(gpus) == 0 {
		return nil, fmt.Errorf("train: no GPUs")
	}
	switch {
	//lint:allow floatcmp 0 is the unset-field sentinel of the zero Config, not a computed value
	case cfg.StragglerScale == 0:
		cfg.StragglerScale = 1
	case !(cfg.StragglerScale >= 1) || math.IsInf(cfg.StragglerScale, 1): // NaN too
		return nil, fmt.Errorf("train: %w: %v is not a finite factor >= 1", ErrStragglerScale, cfg.StragglerScale)
	}
	straggler := cfg.StragglerScale > 1
	if straggler && (cfg.StragglerRank < 0 || cfg.StragglerRank >= len(gpus)) {
		return nil, fmt.Errorf("train: straggler rank %d outside [0,%d)", cfg.StragglerRank, len(gpus))
	}
	iters, warmup := cfg.Iterations, cfg.Warmup
	onePeriod := cfg.Synthetic && cfg.Trace == nil && !straggler && !cfg.EveryIteration
	if onePeriod {
		cfg.Iterations, cfg.Warmup = 1, 0
	}
	buckets := cfg.Buckets
	if buckets == nil {
		buckets = collective.PerLayerBuckets(cfg.Job.Model)
	}
	copts := cfg.CollectiveOptions
	if cfg.Trace != nil {
		// Three-index append: never scribble on the caller's option slice.
		copts = append(copts[:len(copts):len(copts)], collective.WithTrace(cfg.Trace))
	}
	group, err := collective.NewGroup(eng, net, cfg.Topology, gpus, copts...)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}

	plan, err := newIterationPlan(cfg.Job, gpus[0].GPU, buckets)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if straggler {
		// Every other worker waits out the straggler's slowed compute, so
		// the workers' summed time is about the world size times it. That
		// sum, the clock and every phase must fit a time.Duration; half its
		// range is left for the time the scale does not slow.
		compute := plan.computeTotal * time.Duration(cfg.Warmup+cfg.Iterations)
		if float64(len(gpus))*float64(compute)*cfg.StragglerScale >= math.MaxInt64/2 {
			return nil, fmt.Errorf("train: %w: %v times %d workers' %v of compute overflows the simulated clock",
				ErrStragglerScale, cfg.StragglerScale, len(gpus), compute)
		}
	}

	hook := cfg.HookOverhead
	if group.WorldSize() == 1 {
		hook = 0 // DDP hooks are not installed on single-GPU training
	}
	workers := make([]*worker, len(gpus))
	for rank, gpu := range gpus {
		w := newWorker(rank, gpu, &cfg, plan, group, eng, hook, cfg.Warmup+cfg.Iterations)
		workers[rank] = w
		if !cfg.Synthetic {
			hp := cfg.Pipelines[gpu.Node]
			if hp == nil {
				return nil, fmt.Errorf("train: no pipeline for machine %d", gpu.Node)
			}
			hp.SetCacheMode(cfg.CacheMode)
			route, err := cfg.Topology.Route(cfg.Topology.Machines[gpu.Node].Host, gpu)
			if err != nil {
				return nil, fmt.Errorf("train: upload route: %w", err)
			}
			loader, err := hp.NewLoader(cfg.Job, route, cfg.Warmup+cfg.Iterations)
			if err != nil {
				return nil, fmt.Errorf("train: %w", err)
			}
			w.loader = loader
		}
	}
	var skip *skipper
	if !cfg.Synthetic && cfg.Trace == nil && !straggler && !cfg.EveryIteration {
		skip = newSkipper(eng, net, group, workers)
	}
	for _, w := range workers {
		w.skip = skip
		if w.loader != nil {
			w.loader.Start(fmt.Sprintf("loader-%d", w.rank))
		}
		w.task = eng.Spawn(fmt.Sprintf("worker-%d", w.rank), w.cont)
	}
	return &run{
		cfg: &cfg, iters: iters, warmup: warmup, onePeriod: onePeriod,
		plan: plan, group: group, workers: workers, skip: skip,
	}, nil
}

// result reads the Result off a run its engine has simulated, and counts
// the steps it simulated.
func (r *run) result() *Result {
	iters, skip := r.iters, r.skip
	simulated := r.cfg.Warmup + r.cfg.Iterations
	if skip != nil {
		simulated -= skip.skipped
	}
	stepsSimulated.Add(uint64(simulated))

	res := &Result{
		Iterations:       iters,
		WorldSize:        len(r.workers),
		ComputePerWorker: r.plan.computeTotal * time.Duration(iters),
		CommBusy:         r.group.BusyTime(),
	}
	if skip != nil {
		res.CommBusy += skip.busy
	}
	for _, w := range r.workers {
		res.Elapsed = max(res.Elapsed, w.finish-w.warmupEnd)
		res.DataWaitMax = max(res.DataWaitMax, w.dataWait-w.dataBase)
		res.CommWaitMax = max(res.CommWaitMax, w.commWait-w.commBase)
	}
	if r.onePeriod {
		res.Elapsed *= time.Duration(iters)
		res.DataWaitMax *= time.Duration(iters)
		res.CommWaitMax *= time.Duration(iters)
		res.CommBusy *= time.Duration(r.warmup + iters)
	}
	res.PerIteration = res.Elapsed / time.Duration(iters)
	if res.Elapsed > 0 {
		res.SamplesPerSecond = float64(iters*r.cfg.Job.BatchPerGPU*len(r.workers)) / res.Elapsed.Seconds()
	}
	return res
}

// stepsSimulated counts the optimizer steps Run has simulated.
var stepsSimulated atomic.Uint64

// StepsSimulated returns how many optimizer steps Run has simulated in
// this process, warmup steps included. A step that Run skips as a repeat
// of a period is not counted, so the count shows how much work the skips
// save where wall time cannot tell.
func StepsSimulated() uint64 { return stepsSimulated.Load() }

// iterationPlan precomputes the compute timeline of one iteration:
// a single forward-pass duration, then backward-pass segments ending at
// each bucket's issue point.
type iterationPlan struct {
	forward time.Duration

	// backwardSegments[i] is the backward compute between bucket i-1's
	// issue point and bucket i's. backwardTail is the compute after the
	// final bucket issue (layers before the first parameter layer).
	backwardSegments []time.Duration
	backwardTail     time.Duration

	buckets      []collective.Bucket
	optimizer    time.Duration
	computeTotal time.Duration
}

func newIterationPlan(job workload.Job, gpu hw.GPUSpec, buckets []collective.Bucket) (*iterationPlan, error) {
	m := job.Model
	batch := float64(job.BatchPerGPU)
	eff := gpu.EffectiveFLOPS(batch * m.FwdFLOPsPerSample())

	// Activations stream per sample; weights are read once per pass
	// regardless of batch size.
	fwdTime := func(l dnn.Layer) time.Duration {
		mem := 2*batch*l.ActivationBytes + float64(l.Params)*dnn.BytesPerParam
		return gpu.LayerTime(batch*l.FwdFLOPs, mem, eff)
	}
	bwdTime := func(l dnn.Layer) time.Duration {
		mem := 4*batch*l.ActivationBytes + 3*float64(l.Params)*dnn.BytesPerParam
		return gpu.LayerTime(2*batch*l.FwdFLOPs, mem, eff)
	}

	p := &iterationPlan{buckets: buckets}
	for _, l := range m.Layers {
		p.forward += fwdTime(l)
	}

	// Map each layer index to the bucket issued when its gradient is
	// ready (the bucket whose earliest backward-order layer it is), or -1.
	issueAt := make([]int, len(m.Layers))
	for i := range issueAt {
		issueAt[i] = -1
	}
	for bi, b := range buckets {
		if len(b.Layers) == 0 {
			return nil, fmt.Errorf("bucket %d has no layers", bi)
		}
		// The deepest layer in backward order; one the model lacks gives
		// the bucket no issue point, reported below.
		if last := b.Layers[len(b.Layers)-1]; last >= 0 && last < len(m.Layers) {
			issueAt[last] = bi
		}
	}

	p.backwardSegments = make([]time.Duration, 0, len(buckets))
	seg := time.Duration(0)
	nextBucket := 0
	for i := len(m.Layers) - 1; i >= 0; i-- {
		seg += bwdTime(m.Layers[i])
		if bi := issueAt[i]; bi >= 0 {
			if bi != nextBucket {
				return nil, fmt.Errorf("bucket %d issued out of order (expected %d)", bi, nextBucket)
			}
			p.backwardSegments = append(p.backwardSegments, seg)
			seg = 0
			nextBucket++
		}
	}
	if nextBucket != len(buckets) {
		return nil, fmt.Errorf("only %d of %d buckets have issue points", nextBucket, len(buckets))
	}
	p.backwardTail = seg

	// SGD+momentum touches three parameter-sized arrays.
	optBytes := 3 * float64(m.TotalParams()) * dnn.BytesPerParam
	p.optimizer = time.Duration(optBytes / gpu.MemBandwidth * float64(time.Second))

	p.computeTotal = p.forward + p.backwardTail + p.optimizer
	for _, s := range p.backwardSegments {
		p.computeTotal += s
	}
	return p, nil
}

// Worker states. The per-iteration loop is a run-to-completion state
// machine driven by step: a compute phase is a Schedule(d, w.cont)
// followed by a return, a wait on a signal is an OnFire(w.cont).
const (
	wIterStart   = iota // top of the iteration loop (warmup bookkeeping, data fetch)
	wForward            // launch forward compute
	wForwardDone        // forward finished; start backward
	wSegOrTail          // next backward segment, or the tail when buckets are done
	wSegDone            // segment finished; charge the DDP hook
	wHookDone           // hook finished; issue the bucket's all-reduce
	wIssue              // issue all-reduce, overlap or block per config
	wBlockDone          // blocking (no-overlap) all-reduce finished
	wTailDone           // backward tail finished; drain overlapped collectives
	wDrain              // await pending all-reduces in issue order
	wOptDone            // optimizer finished; next iteration
)

type worker struct {
	rank   int
	gpu    *topo.Device
	cfg    *Config
	plan   *iterationPlan
	group  *collective.Group
	loader *pipeline.Loader
	task   *sim.Task
	eng    *sim.Engine
	ev     sim.Event // the last forward pass scheduled
	skip   *skipper  // nil unless Run may skip periods
	hook   time.Duration
	total  int

	// cont and onBatch are bound once at spawn so scheduling a
	// continuation never mints a closure.
	cont    func()
	onBatch func(pipeline.Batch, bool)

	state   int
	it      int           // current iteration
	bi      int           // current backward bucket
	pi      int           // drain position in pending
	pending []*sim.Signal // overlapped all-reduces, reused across iterations

	// slow is the straggler compute multiplier (1 for normal workers).
	slow float64

	// Span/stall start times carried across blocking points.
	t0, c0, h0, o0, b0 time.Duration

	// The waits are cumulative over the run; at the warmup boundary the
	// worker takes them as its bases, which the Result subtracts. A skip
	// (see skipper) shifts the clock that finish and a later warmupEnd
	// read by shift.
	finish             time.Duration
	warmupEnd          time.Duration
	dataWait, commWait time.Duration
	dataBase, commBase time.Duration
	shift              time.Duration
}

// newWorker returns rank's worker at the top of its first iteration,
// with its continuations bound.
func newWorker(rank int, gpu *topo.Device, cfg *Config, plan *iterationPlan, group *collective.Group, eng *sim.Engine, hook time.Duration, total int) *worker {
	w := &worker{
		rank:  rank,
		gpu:   gpu,
		cfg:   cfg,
		plan:  plan,
		group: group,
		eng:   eng,
		hook:  hook,
		total: total,
		state: wIterStart,
		slow:  1,
	}
	if cfg.StragglerScale > 1 && rank == cfg.StragglerRank {
		w.slow = cfg.StragglerScale
	}
	w.cont = w.step
	w.onBatch = w.batchDelivered
	return w
}

// dur scales a compute duration by the worker's straggler factor.
func (w *worker) dur(d time.Duration) time.Duration {
	if w.slow > 1 {
		return time.Duration(float64(d) * w.slow)
	}
	return d
}

func (w *worker) span(kind trace.Kind, name string, start time.Duration) {
	w.cfg.Trace.Add(trace.Span{Worker: w.rank, Kind: kind, Name: name, Start: start, End: w.eng.Now()})
}

func (w *worker) iterName() string { return fmt.Sprintf("iter%d", w.it) }

// batchDelivered resumes the iteration once the loader hands over a
// batch (synchronously when one was prefetched).
func (w *worker) batchDelivered(_ pipeline.Batch, ok bool) {
	if !ok {
		panic(fmt.Sprintf("train: loader for rank %d exhausted at iteration %d", w.rank, w.it))
	}
	w.dataWait += w.eng.Now() - w.t0
	if w.cfg.Trace != nil {
		w.span(trace.KindDataWait, w.iterName(), w.t0)
	}
	w.state = wForward
	w.step()
}

// step advances the worker until it blocks (schedules its continuation)
// or the run completes. An untraced worker folds each bucket's DDP hook
// into its backward segment's event, going from wSegOrTail straight to
// wHookDone: with no spans to record, the segment's end needs no event
// of its own. A traced worker schedules the two apart.
func (w *worker) step() {
	tr := w.cfg.Trace
	for {
		switch w.state {
		case wIterStart:
			if w.it == w.total {
				w.finish = w.eng.Now() + w.shift
				w.task.End()
				return
			}
			if w.it == w.cfg.Warmup {
				w.warmupEnd = w.eng.Now() + w.shift
				w.dataBase, w.commBase = w.dataWait, w.commWait
			}
			if w.skip != nil {
				w.skip.arrive(w)
			}
			if w.loader != nil {
				w.t0 = w.eng.Now()
				w.loader.NextFunc(w.onBatch)
				return
			}
			w.state = wForward

		case wForward:
			w.t0 = w.eng.Now()
			w.state = wForwardDone
			w.ev = w.eng.Schedule(w.dur(w.plan.forward), w.cont)
			return

		case wForwardDone:
			if tr != nil {
				w.span(trace.KindForward, w.iterName(), w.t0)
			}
			w.bi = 0
			w.pending = w.pending[:0]
			w.state = wSegOrTail

		case wSegOrTail:
			// Each backward segment gets its own span (recorded in
			// wSegDone/wTailDone), so hook and blocking comm-wait time
			// between segments is never double-counted inside a backward
			// span: a worker's spans partition its timeline.
			w.b0 = w.eng.Now()
			if w.bi < len(w.plan.backwardSegments) {
				seg := w.dur(w.plan.backwardSegments[w.bi])
				if tr == nil {
					w.state = wHookDone
					w.eng.Schedule(seg+w.hook, w.cont)
				} else {
					w.state = wSegDone
					w.eng.Schedule(seg, w.cont)
				}
			} else {
				w.state = wTailDone
				w.eng.Schedule(w.dur(w.plan.backwardTail), w.cont)
			}
			return

		case wSegDone:
			if tr != nil {
				w.span(trace.KindBackward, w.iterName(), w.b0)
			}
			if w.hook > 0 {
				w.h0 = w.eng.Now()
				w.state = wHookDone
				w.eng.Schedule(w.hook, w.cont)
				return
			}
			w.state = wIssue

		case wHookDone:
			if tr != nil {
				w.span(trace.KindHook, fmt.Sprintf("bucket%d", w.bi), w.h0)
			}
			w.state = wIssue

		case wIssue:
			bytes := w.plan.buckets[w.bi].Bytes * w.cfg.CompressionRatio
			sig := w.group.AllReduceAsync(w.rank, bytes)
			if w.cfg.DisableOverlap {
				w.c0 = w.eng.Now()
				w.state = wBlockDone
				if !sig.Fired() {
					sig.OnFire(w.cont)
					return
				}
				continue // completed synchronously
			}
			w.pending = append(w.pending, sig)
			w.bi++
			w.state = wSegOrTail

		case wBlockDone:
			w.commWait += w.eng.Now() - w.c0
			if tr != nil {
				w.span(trace.KindCommWait, fmt.Sprintf("bucket%d", w.bi), w.c0)
			}
			w.bi++
			w.state = wSegOrTail

		case wTailDone:
			if tr != nil {
				w.span(trace.KindBackward, w.iterName(), w.b0)
			}
			w.c0 = w.eng.Now()
			w.pi = 0
			w.state = wDrain

		case wDrain:
			for w.pi < len(w.pending) {
				if sig := w.pending[w.pi]; !sig.Fired() {
					sig.OnFire(w.cont)
					return
				}
				w.pi++
			}
			w.commWait += w.eng.Now() - w.c0
			if len(w.pending) > 0 && tr != nil {
				w.span(trace.KindCommWait, w.iterName(), w.c0)
			}
			w.o0 = w.eng.Now()
			w.state = wOptDone
			w.eng.Schedule(w.dur(w.plan.optimizer), w.cont)
			return

		case wOptDone:
			if tr != nil {
				w.span(trace.KindOptimizer, w.iterName(), w.o0)
			}
			w.it++
			w.state = wIterStart
		}
	}
}
