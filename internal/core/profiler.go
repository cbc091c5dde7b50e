// Package core implements Stash, the paper's contribution: a black-box
// profiler for distributed deep learning that measures the four execution
// stalls of a DDL pipeline on cloud GPU instances (§IV-B):
//
//   - interconnect (I/C) stall: step 2 (all-GPU synthetic training) minus
//     step 1 (single-GPU synthetic training with the same per-GPU load);
//   - network (N/W) stall: step 5 (multi-node synthetic training at equal
//     world size) minus step 2;
//   - CPU (prep) stall: step 4 (cached real-data training) minus step 2
//     (from DS-Analyzer);
//   - disk (fetch) stall: step 3 (cold-cache real-data training) minus
//     step 4 (from DS-Analyzer).
//
// Stash is black-box: it only compares elapsed times of differently
// configured runs, never instrumenting the framework's internals, which
// is exactly how the real tool avoids perturbing the asynchronous
// overlap of communication and computation (§III).
//
// The profiler exploits training's repetitive structure (§IV): it times a
// fixed window of iterations and scales to a full epoch.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stash/internal/cloud"
	"stash/internal/collective"
	"stash/internal/pipeline"
	"stash/internal/topo"
	"stash/internal/train"
	"stash/internal/workload"
)

// DefaultIterations is the profiling window per step. Stall ratios are
// steady-state properties, so a modest window suffices.
const DefaultIterations = 20

// profileWarmup is the number of leading iterations excluded from every
// measurement (pipeline fill, allocator warm-up), as real profilers do.
const profileWarmup = 3

// DefaultCostEpochs is the training length the epoch cost model assumes:
// the first epoch reads the dataset cold; DRAM caching absorbs fetch
// stalls afterwards (SI), so the cold epoch's extra time is amortized
// over this many epochs.
const DefaultCostEpochs = 10

// Option configures a Profiler.
type Option func(*Profiler)

// WithIterations sets the per-step profiling window.
func WithIterations(n int) Option {
	return func(p *Profiler) { p.iterations = n }
}

// WithSlicePolicy sets how p3.8xlarge NVLink slicing resolves (default
// SliceDegraded, the allocation the paper observed).
func WithSlicePolicy(sp cloud.SlicePolicy) Option {
	return func(p *Profiler) { p.slicePolicy = sp }
}

// WithSeed sets the provisioning seed (matters under SliceLottery).
func WithSeed(seed int64) Option {
	return func(p *Profiler) { p.seed = seed }
}

// WithCollectiveOptions forwards options to every training run's gradient
// synchronization group (algorithm, call overhead).
func WithCollectiveOptions(opts ...collective.Option) Option {
	return func(p *Profiler) { p.collectiveOpts = opts }
}

// WithCostEpochs sets how many epochs the cost model amortizes the cold
// first epoch over (default DefaultCostEpochs).
func WithCostEpochs(n int) Option {
	return func(p *Profiler) { p.costEpochs = n }
}

// WithParallelism bounds how many candidate configurations Recommend
// measures concurrently (0 or negative = GOMAXPROCS, 1 = serial).
func WithParallelism(n int) Option {
	return func(p *Profiler) { p.parallelism = n }
}

// WithBlameAttribution makes ProfileContext run the frontier blame pass
// as an extra stage (a traced re-run of the all-GPU synthetic scenario)
// and attach the ranked per-worker table to Report.Blame. Default off:
// the stall characterization itself never needs a trace.
func WithBlameAttribution(on bool) Option {
	return func(p *Profiler) { p.blame = on }
}

// WithWarmPrefixFork toggles warm-prefix forking (default on). Synthetic
// training is lockstep-periodic from iteration zero — every iteration
// replays the same event schedule — so the warmup prefix is a replica of
// the measured window and the profiler can skip simulating it, running
// the measured iterations directly and scaling the one warmup-inclusive
// statistic (CommBusy) exactly. Real-data scenarios always simulate their
// warmup: pipeline cache state makes their prefix genuinely different.
// The audit determinism family validates the forked path byte-identical
// to the full run.
func WithWarmPrefixFork(on bool) Option {
	return func(p *Profiler) { p.warmFork = on }
}

// Profiler measures DDL stalls on simulated cloud instances. It is safe
// for concurrent use: each scenario simulates on its own engine, and the
// memoization cache is single-flight, so concurrent requests for the
// same scenario run exactly one simulation and share its result.
type Profiler struct {
	iterations     int
	slicePolicy    cloud.SlicePolicy
	seed           int64
	costEpochs     int
	parallelism    int
	warmFork       bool
	blame          bool
	collectiveOpts []collective.Option

	// cache memoizes scenario results: simulations are deterministic, and
	// sweeps re-measure the same cells (every instance size shares the
	// same step-1 single-GPU run, for example). Each entry is created
	// before its simulation starts; latecomers wait on done instead of
	// duplicating the work.
	mu    sync.Mutex
	cache map[scenarioKey]*cacheEntry

	// Scheduler counters behind Stats. requests is incremented when a
	// scenario request is admitted (after the fit check); exactly one of
	// the outcome counters follows, so at quiescence
	// requests == simulated + hits + waits + cancelled.
	requests  atomic.Int64
	simulated atomic.Int64
	hits      atomic.Int64
	waits     atomic.Int64
	cancelled atomic.Int64

	// Per-tenant mirrors of the scheduler counters, keyed by the tenant
	// attached to the request context (WithTenant). Every increment of a
	// global counter is mirrored into the requesting tenant's entry, so
	// the conservation law holds per tenant too. tmu guards only the map;
	// the counters themselves are atomics with the same load ordering
	// discipline as the globals.
	tmu     sync.Mutex
	tenants map[string]*tenantCounters
}

// tenantCounters is one tenant's mirror of the scheduler counters.
type tenantCounters struct {
	requests, simulated, hits, waits, cancelled atomic.Int64
}

// cacheEntry is one scenario's single-flight slot: res and err are
// written once, before done is closed.
type cacheEntry struct {
	done chan struct{}
	res  *train.Result
	err  error
}

// Stats is a snapshot of the profiler's scenario-scheduler counters.
// The counters conserve: every admitted request ends in exactly one of
// four mutually exclusive outcomes, so on a quiesced profiler
//
//	Requests == Simulated + CacheHits + Waits + Cancelled.
//
// A snapshot taken while requests are in flight may see Requests ahead
// of the outcome sum (admission is counted before the outcome), never
// behind it — Balance is always >= 0.
type Stats struct {
	// Requests counts scenario requests admitted to the scheduler (a
	// request rejected by the GPU-memory fit check is never admitted).
	Requests int64

	// Simulated counts scenarios actually executed on an engine. The
	// single-flight cache keeps it ≤ the number of unique scenarios.
	Simulated int64

	// CacheHits counts scenario requests served from a completed result.
	CacheHits int64

	// Waits counts requests that found their scenario in flight, blocked
	// on the single-flight entry, and received its result.
	Waits int64

	// Cancelled counts requests whose context expired before a result:
	// either on admission or while blocked on an in-flight entry.
	Cancelled int64
}

// Balance is Requests minus the sum of the outcome counters. It is 0 on
// a quiesced profiler and transiently positive while requests are in
// flight; a negative balance means the accounting is broken (the
// auditor's conservation invariant).
func (s Stats) Balance() int64 {
	return s.Requests - (s.Simulated + s.CacheHits + s.Waits + s.Cancelled)
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("%d scenario requests: %d simulated, %d cache hits, %d single-flight waits, %d cancelled",
		s.Requests, s.Simulated, s.CacheHits, s.Waits, s.Cancelled)
}

// Stats returns the profiler's scheduler counters. The fields are read
// individually, not under one lock, so a concurrent snapshot can be
// mid-request. The outcome counters are loaded before Requests: every
// outcome increment is preceded by its request's admission increment,
// so an outcome visible here implies its request is too, and Balance
// stays >= 0 even mid-flight.
func (p *Profiler) Stats() Stats {
	s := Stats{
		Simulated: p.simulated.Load(),
		CacheHits: p.hits.Load(),
		Waits:     p.waits.Load(),
		Cancelled: p.cancelled.Load(),
	}
	s.Requests = p.requests.Load()
	return s
}

// TenantStats snapshots the per-tenant scheduler counters for every
// tenant that has made at least one scenario request under WithTenant.
// Each snapshot follows the same ordering discipline as Stats (outcomes
// loaded before Requests), so per-tenant Balance is >= 0 even
// mid-flight and exactly 0 at quiescence.
func (p *Profiler) TenantStats() map[string]Stats {
	p.tmu.Lock()
	defer p.tmu.Unlock()
	out := make(map[string]Stats, len(p.tenants))
	for name, tc := range p.tenants {
		s := Stats{
			Simulated: tc.simulated.Load(),
			CacheHits: tc.hits.Load(),
			Waits:     tc.waits.Load(),
			Cancelled: tc.cancelled.Load(),
		}
		s.Requests = tc.requests.Load()
		out[name] = s
	}
	return out
}

// tenantFor resolves the request context's tenant mirror, creating it
// on first use; nil when the context carries no tenant.
func (p *Profiler) tenantFor(ctx context.Context) *tenantCounters {
	name := TenantFrom(ctx)
	if name == "" {
		return nil
	}
	p.tmu.Lock()
	defer p.tmu.Unlock()
	tc := p.tenants[name]
	if tc == nil {
		tc = &tenantCounters{}
		p.tenants[name] = tc
	}
	return tc
}

// New returns a Stash profiler with the given options.
func New(opts ...Option) *Profiler {
	p := &Profiler{
		iterations:  DefaultIterations,
		slicePolicy: cloud.SliceDegraded,
		seed:        1,
		costEpochs:  DefaultCostEpochs,
		warmFork:    true,
		cache:       make(map[scenarioKey]*cacheEntry),
		tenants:     make(map[string]*tenantCounters),
	}
	for _, o := range opts {
		o(p)
	}
	if p.iterations < 1 {
		p.iterations = DefaultIterations
	}
	if p.costEpochs < 1 {
		p.costEpochs = 1
	}
	return p
}

// scenarioKey identifies a deterministic scenario result.
type scenarioKey struct {
	model    string
	batch    int
	instance string
	count    int
	gpusPer  int
	mode     runMode
}

// OOMError reports a job that does not fit in a GPU's memory.
type OOMError struct {
	Model     string
	Batch     int
	Required  float64
	Available float64
}

// Error implements the error interface.
func (e *OOMError) Error() string {
	return fmt.Sprintf("stash: %s at batch %d needs %.1f GB but the GPU has %.1f GB",
		e.Model, e.Batch, e.Required/1e9, e.Available/1e9)
}

// checkFit verifies the job fits in the instance's per-GPU memory.
func checkFit(job workload.Job, it cloud.InstanceType) error {
	need := job.Model.TrainingMemoryBytes(job.BatchPerGPU)
	have := it.GPUMemPerGPU()
	if need > have {
		return &OOMError{Model: job.Model.Name, Batch: job.BatchPerGPU, Required: need, Available: have}
	}
	return nil
}

// scenario describes one training run the profiler executes.
type scenario struct {
	instance cloud.InstanceType
	count    int // machines
	gpusPer  int // participating GPUs per machine; 0 = all
	mode     runMode
}

type runMode int

const (
	modeSynthetic runMode = iota + 1
	modeRealCold
	modeRealWarm
)

// run executes one scenario on a fresh engine and returns the result.
// Results are memoized: with a fixed profiler configuration a scenario is
// fully deterministic, so the first requester simulates and everyone
// else — concurrent or later — shares its result (or its error).
//
// Cancellation is checked at scenario granularity: a request that
// arrives with an expired context never starts a simulation, and a
// request blocked on another goroutine's in-flight scenario stops
// waiting when its own context is cancelled. A simulation that has
// already started always runs to completion (they take milliseconds),
// so a cancelled requester never poisons the single-flight entry for
// the goroutines still waiting on it.
//
// Counter discipline: a request that passes the fit check increments
// requests, then exactly one outcome counter — simulated, hits, waits,
// or cancelled — so the Stats conservation invariant holds. A waiter
// whose context expires counts as cancelled, not as a wait: it never
// received the result it was waiting for.
func (p *Profiler) run(ctx context.Context, job workload.Job, sc scenario) (*train.Result, error) {
	if err := checkFit(job, sc.instance); err != nil {
		return nil, err
	}
	tc := p.tenantFor(ctx)
	p.requests.Add(1)
	if tc != nil {
		tc.requests.Add(1)
	}
	if err := ctx.Err(); err != nil {
		p.cancelled.Add(1)
		if tc != nil {
			tc.cancelled.Add(1)
		}
		return nil, err
	}
	key := scenarioKey{
		model:    job.Model.Name,
		batch:    job.BatchPerGPU,
		instance: sc.instance.Name,
		count:    sc.count,
		gpusPer:  sc.gpusPer,
		mode:     sc.mode,
	}
	p.mu.Lock()
	if e, ok := p.cache[key]; ok {
		p.mu.Unlock()
		select {
		case <-e.done:
			p.hits.Add(1)
			if tc != nil {
				tc.hits.Add(1)
			}
			return e.res, e.err
		default:
		}
		select {
		case <-e.done:
			p.waits.Add(1)
			if tc != nil {
				tc.waits.Add(1)
			}
			return e.res, e.err
		case <-ctx.Done():
			p.cancelled.Add(1)
			if tc != nil {
				tc.cancelled.Add(1)
			}
			return nil, ctx.Err()
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	p.cache[key] = e
	p.mu.Unlock()

	e.res, e.err = p.simulate(job, sc)
	p.simulated.Add(1)
	if tc != nil {
		tc.simulated.Add(1)
	}
	close(e.done)
	return e.res, e.err
}

// simulate runs one scenario on a pooled simContext: the engine, network,
// and provisioned topology come from the calling worker's arena (reset to
// a state byte-identical with a fresh build), so per-cell simulation does
// not pay per-cell construction.
func (p *Profiler) simulate(job workload.Job, sc scenario) (*train.Result, error) {
	// Warm-prefix forking (see WithWarmPrefixFork): synthetic lockstep
	// periodicity means the warmup prefix adds no information, so skip
	// simulating it and reconstruct the one warmup-inclusive statistic
	// below.
	warmup := profileWarmup
	fork := p.warmFork && sc.mode == modeSynthetic
	if fork {
		warmup = 0
	}

	c := acquireSimContext()
	defer releaseSimContext(c)
	top, err := c.world(p.slicePolicy, p.seed, sc.instance, sc.count)
	if err != nil {
		return nil, err
	}
	eng, net := c.eng, c.net

	var gpus []*topo.Device
	if sc.gpusPer > 0 {
		for _, m := range top.Machines {
			if sc.gpusPer > len(m.GPUs) {
				return nil, fmt.Errorf("stash: %d GPUs requested per %s, has %d",
					sc.gpusPer, sc.instance.Name, len(m.GPUs))
			}
			gpus = append(gpus, m.GPUs[:sc.gpusPer]...)
		}
	}

	cfg := train.Config{
		Job:               job,
		Topology:          top,
		GPUs:              gpus,
		Iterations:        p.iterations,
		Warmup:            warmup,
		Synthetic:         sc.mode == modeSynthetic,
		CollectiveOptions: p.collectiveOpts,
		// Transfers that stage through host memory (PCIe peer traffic,
		// network paths) block the compute stream; only whole NVLink
		// crossbars keep the DDP overlap (§VI-A2's additive cost model).
		DisableOverlap: !top.SupportsAsyncCollectives(),
	}
	if sc.mode != modeSynthetic {
		cfg.Pipelines = make(map[int]*pipeline.HostPipeline, len(top.Machines))
		for node := range top.Machines {
			hp, err := pipeline.New(eng, net, node, pipeline.Config{
				Storage:    sc.instance.Storage,
				CPU:        sc.instance.CPU(),
				CacheBytes: sc.instance.MainMemoryGB * 0.9e9,
			})
			if err != nil {
				return nil, err
			}
			cfg.Pipelines[node] = hp
		}
		cfg.CacheMode = pipeline.CacheCold
		if sc.mode == modeRealWarm {
			cfg.CacheMode = pipeline.CacheWarm
		}
	}
	res, err := train.Run(eng, net, cfg)
	if err != nil {
		return nil, err
	}
	if fork {
		// Every other Result field is measured inside the post-warmup
		// window and is identical by lockstep periodicity; CommBusy alone
		// counts warmup collectives too. The forked run's CommBusy is
		// exactly iterations × per-iteration busy time, so this scaling is
		// exact integer arithmetic, not an approximation.
		res.CommBusy = res.CommBusy * time.Duration(profileWarmup+p.iterations) / time.Duration(p.iterations)
	}
	return res, nil
}

// ICStall is the interconnect-stall measurement of §IV-B1.
type ICStall struct {
	// SingleGPU is step 1's per-iteration time (one GPU, same per-GPU
	// batch, others idle).
	SingleGPU time.Duration

	// AllGPU is step 2's per-iteration time (every GPU of the machine).
	AllGPU time.Duration

	// Stall is the per-iteration interconnect stall: AllGPU - SingleGPU.
	Stall time.Duration

	// Pct is the paper's I/C stall%: stall time as a percentage of
	// single-GPU time.
	Pct float64
}

// InterconnectStall measures the intra-machine communication stall of a
// job on one instance (steps 1 and 2).
func (p *Profiler) InterconnectStall(job workload.Job, it cloud.InstanceType) (ICStall, error) {
	return p.clusterCommStall(context.Background(), job, it, 1)
}

// ClusterCommStall generalizes the interconnect measurement to a cluster
// of count instances using every GPU: the figures' "8xlarge*2" bars are
// the total communication stall (interconnect plus network) of the
// cluster relative to a single GPU's time.
func (p *Profiler) ClusterCommStall(job workload.Job, it cloud.InstanceType, count int) (ICStall, error) {
	return p.clusterCommStall(context.Background(), job, it, count)
}

func (p *Profiler) clusterCommStall(ctx context.Context, job workload.Job, it cloud.InstanceType, count int) (ICStall, error) {
	t1, err := p.run(ctx, job, scenario{instance: it, count: 1, gpusPer: 1, mode: modeSynthetic})
	if err != nil {
		return ICStall{}, fmt.Errorf("step 1: %w", err)
	}
	t2, err := p.run(ctx, job, scenario{instance: it, count: count, mode: modeSynthetic})
	if err != nil {
		return ICStall{}, fmt.Errorf("step 2: %w", err)
	}
	s := ICStall{
		SingleGPU: t1.PerIteration,
		AllGPU:    t2.PerIteration,
		Stall:     t2.PerIteration - t1.PerIteration,
	}
	if s.SingleGPU > 0 {
		s.Pct = 100 * s.Stall.Seconds() / s.SingleGPU.Seconds()
	}
	return s, nil
}

// NWStall is the network-stall measurement of §IV-B2.
type NWStall struct {
	// SingleInstance is step 2's per-iteration time.
	SingleInstance time.Duration

	// MultiInstance is step 5's per-iteration time: the same world size
	// split across Nodes network-connected instances.
	MultiInstance time.Duration

	// Nodes is the number of machines in step 5.
	Nodes int

	// Stall is MultiInstance - SingleInstance per iteration.
	Stall time.Duration

	// Pct is the paper's N/W stall%: stall time as a percentage of
	// single-instance time.
	Pct float64
}

// NetworkStall measures the inter-machine communication stall: step 2 on
// one instance versus step 5 on nodes instances holding the same total
// GPU count. The instance's GPU count must be divisible by nodes.
func (p *Profiler) NetworkStall(job workload.Job, it cloud.InstanceType, nodes int) (NWStall, error) {
	return p.NetworkStallContext(context.Background(), job, it, nodes)
}

// NetworkStallContext is NetworkStall honoring ctx: cancellation is
// observed between the two underlying scenarios (see run).
func (p *Profiler) NetworkStallContext(ctx context.Context, job workload.Job, it cloud.InstanceType, nodes int) (NWStall, error) {
	if nodes < 2 {
		return NWStall{}, fmt.Errorf("stash: network stall needs >= 2 nodes, got %d", nodes)
	}
	if it.NGPUs%nodes != 0 {
		return NWStall{}, fmt.Errorf("stash: %s has %d GPUs, not divisible across %d nodes", it.Name, it.NGPUs, nodes)
	}
	t2, err := p.run(ctx, job, scenario{instance: it, count: 1, mode: modeSynthetic})
	if err != nil {
		return NWStall{}, fmt.Errorf("step 2: %w", err)
	}
	t5, err := p.run(ctx, job, scenario{instance: it, count: nodes, gpusPer: it.NGPUs / nodes, mode: modeSynthetic})
	if err != nil {
		return NWStall{}, fmt.Errorf("step 5: %w", err)
	}
	s := NWStall{
		SingleInstance: t2.PerIteration,
		MultiInstance:  t5.PerIteration,
		Nodes:          nodes,
		Stall:          t5.PerIteration - t2.PerIteration,
	}
	if s.SingleInstance > 0 {
		s.Pct = 100 * s.Stall.Seconds() / s.SingleInstance.Seconds()
	}
	return s, nil
}

// DataStalls is the DS-Analyzer fetch/prep measurement (§II-B) that Stash
// embeds as steps 2, 3 and 4.
type DataStalls struct {
	// Synthetic is step 2's per-iteration time (maximum ingestion rate).
	Synthetic time.Duration

	// ColdCache is step 3's per-iteration time (real data, caches
	// dropped).
	ColdCache time.Duration

	// WarmCache is step 4's per-iteration time (real data fully cached).
	WarmCache time.Duration

	// PrepStall is the CPU pre-processing stall: WarmCache - Synthetic.
	PrepStall time.Duration

	// FetchStall is the disk stall: ColdCache - WarmCache.
	FetchStall time.Duration

	// PrepPct and FetchPct express the stalls as percentages of total
	// (cold-cache) training time, as plotted in Figs 4, 8 and 9.
	PrepPct  float64
	FetchPct float64
}

// DataStallAnalysis measures fetch and prep stalls on one instance
// (steps 2, 3 and 4).
func (p *Profiler) DataStallAnalysis(job workload.Job, it cloud.InstanceType) (DataStalls, error) {
	return p.clusterDataStalls(context.Background(), job, it, 1)
}

// ClusterDataStalls generalizes the fetch/prep measurement to count
// network-connected instances, each reading from its own volume.
func (p *Profiler) ClusterDataStalls(job workload.Job, it cloud.InstanceType, count int) (DataStalls, error) {
	return p.clusterDataStalls(context.Background(), job, it, count)
}

func (p *Profiler) clusterDataStalls(ctx context.Context, job workload.Job, it cloud.InstanceType, count int) (DataStalls, error) {
	t2, err := p.run(ctx, job, scenario{instance: it, count: count, mode: modeSynthetic})
	if err != nil {
		return DataStalls{}, fmt.Errorf("step 2: %w", err)
	}
	t3, err := p.run(ctx, job, scenario{instance: it, count: count, mode: modeRealCold})
	if err != nil {
		return DataStalls{}, fmt.Errorf("step 3: %w", err)
	}
	t4, err := p.run(ctx, job, scenario{instance: it, count: count, mode: modeRealWarm})
	if err != nil {
		return DataStalls{}, fmt.Errorf("step 4: %w", err)
	}
	s := DataStalls{
		Synthetic: t2.PerIteration,
		ColdCache: t3.PerIteration,
		WarmCache: t4.PerIteration,
	}
	s.PrepStall = max(0, s.WarmCache-s.Synthetic)
	s.FetchStall = max(0, s.ColdCache-s.WarmCache)
	if s.ColdCache > 0 {
		s.PrepPct = 100 * s.PrepStall.Seconds() / s.ColdCache.Seconds()
		s.FetchPct = 100 * s.FetchStall.Seconds() / s.ColdCache.Seconds()
	}
	return s, nil
}

// EpochEstimate is the end-to-end time and money one epoch costs on a
// configuration.
type EpochEstimate struct {
	// Instance and Nodes identify the configuration.
	Instance string
	Nodes    int

	// WorldSize is the total GPU count.
	WorldSize int

	// PerIteration is the amortized iteration time: steady-state (warm
	// caches) plus the cold first epoch's surcharge spread over the cost
	// model's training length.
	PerIteration time.Duration

	// WarmIteration and ColdIteration are the underlying measurements
	// (steps 4 and 3 of the methodology).
	WarmIteration time.Duration
	ColdIteration time.Duration

	// Iterations is the optimizer steps per epoch at this world size.
	Iterations int

	// Time is the wall-clock time of one (amortized) epoch.
	Time time.Duration

	// Cost is the on-demand dollar cost of one epoch.
	Cost float64
}

// Epoch estimates one epoch of real training on count instances (using
// every GPU). The estimate blends the warm steady state with the cold
// first epoch, amortized over the cost model's training length: that is
// what makes the 16xlarge's disk stalls erode its interconnect advantage
// over the 8xlarge (SV-B2).
func (p *Profiler) Epoch(job workload.Job, it cloud.InstanceType, count int) (EpochEstimate, error) {
	return p.EpochContext(context.Background(), job, it, count)
}

// EpochContext is Epoch honoring ctx: cancellation is observed between
// the warm and cold scenarios (see run).
func (p *Profiler) EpochContext(ctx context.Context, job workload.Job, it cloud.InstanceType, count int) (EpochEstimate, error) {
	warm, err := p.run(ctx, job, scenario{instance: it, count: count, mode: modeRealWarm})
	if err != nil {
		return EpochEstimate{}, err
	}
	cold, err := p.run(ctx, job, scenario{instance: it, count: count, mode: modeRealCold})
	if err != nil {
		return EpochEstimate{}, err
	}
	perIter := warm.PerIteration + (cold.PerIteration-warm.PerIteration)/time.Duration(p.costEpochs)
	iters := job.IterationsPerEpoch(warm.WorldSize)
	est := EpochEstimate{
		Instance:      it.Name,
		Nodes:         count,
		WorldSize:     warm.WorldSize,
		PerIteration:  perIter,
		WarmIteration: warm.PerIteration,
		ColdIteration: cold.PerIteration,
		Iterations:    iters,
		Time:          perIter * time.Duration(iters),
	}
	est.Cost = it.Cost(est.Time, count)
	return est, nil
}

// Report is the full stall characterization of one (job, instance)
// combination.
type Report struct {
	Instance string
	Model    string
	Batch    int

	IC   ICStall
	Data DataStalls

	// NW is only populated when the instance has at least 2 GPUs and an
	// even GPU count (step 5 splits it across two machines).
	NW    *NWStall
	Epoch EpochEstimate

	// Blame is the frontier blame attribution of the all-GPU scenario,
	// populated only under WithBlameAttribution.
	Blame *BlameReport
}

// Profile runs the complete Stash pipeline (steps 1-5) for a job on an
// instance type.
func (p *Profiler) Profile(job workload.Job, it cloud.InstanceType) (*Report, error) {
	return p.ProfileContext(context.Background(), job, it)
}

// ProfileContext is Profile honoring ctx. Cancellation is observed at
// scenario granularity: when ctx expires the pipeline stops before its
// next scenario (or stops waiting on another goroutine's in-flight
// scenario) and returns ctx.Err(). This is what bounds a stashd
// request's time on the server.
func (p *Profiler) ProfileContext(ctx context.Context, job workload.Job, it cloud.InstanceType) (*Report, error) {
	// Progress hook (WithProgress): the pipeline has three or four
	// measurement stages (IC, data, optional NW, epoch); announce the
	// total up front and tick one per stage, mirroring what ForEachCtx
	// does per cell for grid sweeps.
	progress := progressFrom(ctx)
	hasNW := it.NGPUs >= 2 && it.NGPUs%2 == 0
	if progress != nil {
		stages := 3
		if hasNW {
			stages++
		}
		if p.blame {
			stages++
		}
		progress(0, stages)
	}
	stageDone := func() {
		if progress != nil {
			progress(1, 0)
		}
	}
	r := &Report{Instance: it.Name, Model: job.Model.Name, Batch: job.BatchPerGPU}
	var err error
	if r.IC, err = p.clusterCommStall(ctx, job, it, 1); err != nil {
		return nil, err
	}
	stageDone()
	if r.Data, err = p.clusterDataStalls(ctx, job, it, 1); err != nil {
		return nil, err
	}
	stageDone()
	if hasNW {
		nw, err := p.NetworkStallContext(ctx, job, it, 2)
		if err != nil {
			return nil, err
		}
		r.NW = &nw
		stageDone()
	}
	if r.Epoch, err = p.EpochContext(ctx, job, it, 1); err != nil {
		return nil, err
	}
	stageDone()
	if p.blame {
		if r.Blame, err = p.BlameContext(ctx, job, it, BlameOptions{StragglerRank: -1}); err != nil {
			return nil, err
		}
		stageDone()
	}
	return r, nil
}
