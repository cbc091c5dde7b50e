// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I-II, Figs 4-16) plus the in-text case studies, as
// plain-text tables. Each experiment drives the Stash profiler
// (internal/core) over the instance catalog and model zoo exactly as the
// paper's methodology prescribes.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/report"
	"stash/internal/workload"
)

// Config tunes experiment execution.
type Config struct {
	// Iterations is the profiling window per scenario (larger = smoother
	// steady state, slower to simulate). 0 uses the default.
	Iterations int

	// Seed feeds the provisioner (matters only under lottery slicing).
	Seed int64

	// Parallelism bounds how many scenario cells (and, under RunMany,
	// experiments) run concurrently: 0 or negative = GOMAXPROCS (the
	// core.WithParallelism convention), 1 = serial. Output
	// is byte-identical at every setting — cells land in index-ordered
	// slots and rows are assembled in paper order. Parallelism is not
	// part of the shared-profiler identity (profilerKey), so serial and
	// parallel runs of the same configuration share one scenario cache.
	Parallelism int

	// Pool, when non-nil, is the profiler every sweep of this
	// configuration uses instead of the process-wide shared LRU, so the
	// caller owns its scenario cache and counters outright. A cold-cache
	// measurement sets a fresh pool per run, so no run replays scenarios
	// an earlier run in the same process simulated. The caller must
	// construct the pool with the same Iterations, Seed and Parallelism
	// as this Config, or sweep results will not match the configuration
	// they claim to describe. Experiments that need extra profiler
	// options still build fresh unshared profilers.
	Pool *core.Profiler

	// ctx, when set via WithContext, cancels the configuration's sweeps:
	// forEach stops dispatching new cells once ctx is done and the
	// experiment returns ctx.Err(). It deliberately stays out of
	// profilerKey — cancellation never changes what a scenario computes,
	// only whether it starts.
	ctx context.Context
}

// WithContext returns a copy of the configuration whose sweeps observe
// ctx: cancellation (a server request timeout, SIGTERM drain) is
// checked between grid cells and between experiments, so an abandoned
// run stops within one cell's simulation time. The zero Config uses
// context.Background.
func (c Config) WithContext(ctx context.Context) Config {
	c.ctx = ctx
	return c
}

// context returns the configured context, defaulting to Background.
func (c Config) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// DefaultConfig returns the configuration the benches and CLIs use.
func DefaultConfig() Config {
	return Config{Iterations: 12, Seed: 1}
}

func (c Config) normalize() Config {
	if c.Iterations < 1 {
		c.Iterations = 12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	// Negative Parallelism means GOMAXPROCS, same as 0: the semantics
	// are defined once, by core.WithParallelism / core.ForEach ("0 or
	// negative = GOMAXPROCS"), and this layer must not remap them.
	if c.Parallelism < 0 {
		c.Parallelism = 0
	}
	return c
}

// profilerKey identifies the profiler a configuration shares. It
// excludes Parallelism: the scenario results are the same at any worker
// count, so serial and parallel sweeps share one cache.
type profilerKey struct {
	iterations int
	seed       int64
}

// maxSharedProfilers bounds the shared-profiler LRU. Each profiler owns
// a full scenario cache, so an unbounded map leaks one cache per
// distinct bench seed; sweeps only ever interleave a handful of
// configurations at a time.
const maxSharedProfilers = 8

// sharedProfilers memoizes plain profilers per configuration so that
// experiments reuse each other's deterministic scenario results (the
// profiler itself caches runs). Least-recently-used entries are evicted
// beyond maxSharedProfilers.
var sharedProfilers = struct {
	sync.Mutex
	m     map[profilerKey]*core.Profiler
	order []profilerKey // LRU order, oldest first
}{m: make(map[profilerKey]*core.Profiler)}

// profiler builds (or reuses) a Stash profiler for this configuration.
// Passing extra options always builds a fresh, unshared profiler.
func (c Config) profiler(opts ...core.Option) *core.Profiler {
	c = c.normalize()
	base := []core.Option{
		core.WithIterations(c.Iterations),
		core.WithSeed(c.Seed),
		core.WithParallelism(c.Parallelism),
	}
	if len(opts) > 0 {
		return core.New(append(base, opts...)...)
	}
	if c.Pool != nil {
		return c.Pool
	}
	key := profilerKey{iterations: c.Iterations, seed: c.Seed}
	sharedProfilers.Lock()
	defer sharedProfilers.Unlock()
	if p, ok := sharedProfilers.m[key]; ok {
		touchProfiler(key)
		return p
	}
	if len(sharedProfilers.order) >= maxSharedProfilers {
		oldest := sharedProfilers.order[0]
		sharedProfilers.order = sharedProfilers.order[1:]
		delete(sharedProfilers.m, oldest)
	}
	p := core.New(base...)
	sharedProfilers.m[key] = p
	sharedProfilers.order = append(sharedProfilers.order, key)
	return p
}

// touchProfiler moves key to the most-recently-used end. Callers hold
// the sharedProfilers lock.
func touchProfiler(key profilerKey) {
	for i, k := range sharedProfilers.order {
		if k == key {
			sharedProfilers.order = append(append(sharedProfilers.order[:i:i], sharedProfilers.order[i+1:]...), key)
			return
		}
	}
}

// peekProfiler is the read-only counterpart of profiler: it returns the
// configuration's shared profiler if one already exists, without
// inserting a new entry, evicting an old one, or refreshing LRU order.
// Observability paths (SchedulerStats, the stashd /metrics scrape) must
// use this: a scrape that allocated a profiler would report freshly
// zeroed counters and could evict a profiler whose scenario cache a
// running sweep is reusing.
func (c Config) peekProfiler() (*core.Profiler, bool) {
	if c.Pool != nil {
		return c.Pool, true
	}
	c = c.normalize()
	key := profilerKey{iterations: c.Iterations, seed: c.Seed}
	sharedProfilers.Lock()
	defer sharedProfilers.Unlock()
	p, ok := sharedProfilers.m[key]
	return p, ok
}

// SchedulerStats reports the shared profiler's scenario-scheduler
// counters for this configuration (requests, simulations, cache hits,
// single-flight waits, cancellations). It is a pure read: if no sweep
// has built the configuration's profiler yet, it reports zero counters
// instead of allocating one, and it never perturbs the shared-profiler
// LRU — repeated scrapes leave the counters monotonically
// non-decreasing.
func SchedulerStats(cfg Config) core.Stats {
	p, ok := cfg.peekProfiler()
	if !ok {
		return core.Stats{}
	}
	return p.Stats()
}

// SchedulerTenantStats reports the shared profiler's per-tenant
// scenario counters for this configuration (core.Profiler.TenantStats).
// Like SchedulerStats it is a pure read: no profiler is allocated and
// the LRU is untouched; nil when no sweep has built the profiler yet.
func SchedulerTenantStats(cfg Config) map[string]core.Stats {
	p, ok := cfg.peekProfiler()
	if !ok {
		return nil
	}
	return p.TenantStats()
}

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	// ID is the short handle ("fig5", "table1", ...).
	ID string

	// Title describes the paper artifact.
	Title string

	// Run executes the experiment.
	Run func(Config) ([]*report.Table, error)
}

// Registry returns every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: AWS GPU instance types with prices", Run: TableI},
		{ID: "table2", Title: "Table II: DDL models used", Run: TableII},
		{ID: "fig4", Title: "Fig 4: CPU and disk stall % of training time, P2 small models", Run: Fig4},
		{ID: "fig5", Title: "Fig 5: Interconnect stall %, small models, P2 and P3", Run: Fig5},
		{ID: "fig6", Title: "Fig 6: Training time and cost, P2 small models", Run: Fig6},
		{ID: "fig7", Title: "Fig 7: Per-GPU PCIe bandwidth measured in P2", Run: Fig7},
		{ID: "fig8", Title: "Fig 8: CPU and disk stall %, P3 small models", Run: Fig8},
		{ID: "fig9", Title: "Fig 9: CPU and disk stall %, P3 large models", Run: Fig9},
		{ID: "fig10", Title: "Fig 10: Training time and cost, P3 small models", Run: Fig10},
		{ID: "fig11", Title: "Fig 11: Interconnect stall %, P3 small and large models", Run: Fig11},
		{ID: "fig12", Title: "Fig 12: Training time and cost, P3 large models", Run: Fig12},
		{ID: "fig13", Title: "Fig 13: Network stall of two p3.8xlarge instances", Run: Fig13},
		{ID: "fig14", Title: "Fig 14: P2 vs P3 training time and cost per epoch", Run: Fig14},
		{ID: "fig15", Title: "Fig 15: GPU memory utilization, P2 vs P3", Run: Fig15},
		{ID: "fig16", Title: "Fig 16: Communication stalls vs number of layers (micro)", Run: Fig16},
		{ID: "large-on-p2", Title: "SV-A: large-model-on-P2 pathology (ResNet50)", Run: LargeModelOnP2},
		{ID: "bert-24xl", Title: "SV-B: BERT-large on p3.24xlarge at doubled batch", Run: BERT24xl},
		{ID: "ps-vs-allreduce", Title: "SIII: parameter server vs ring all-reduce", Run: PSvsAllReduce},
		{ID: "ablate-overlap", Title: "EXT: ablation of communication/computation overlap", Run: AblateOverlap},
		{ID: "ablate-bucket", Title: "EXT: ablation of gradient bucket size", Run: AblateBucketSize},
		{ID: "ablate-compression", Title: "EXT: ablation of gradient compression", Run: AblateCompression},
		{ID: "slice-lottery", Title: "EXT: p3.8xlarge NVLink slice lottery study", Run: SliceLottery},
		{ID: "multi-epoch", Title: "EXT: stall evolution across epochs (DRAM caching)", Run: MultiEpoch},
		{ID: "p4-preview", Title: "EXT: P4 (A100/NVSwitch) preview", Run: P4Preview},
		{ID: "network-variance", Title: "EXT: VPC network QoS variance study", Run: NetworkVariance},
		{ID: "claims", Title: "Paper claims (SVIII), re-verified against live measurements", Run: Claims},
	}
}

// ByID returns the registered experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// clusterConfig is one bar group of the figures: an instance type and how
// many of them are tied together over the network.
type clusterConfig struct {
	label    string
	instance string
	count    int
}

func p2Configs() []clusterConfig {
	return []clusterConfig{
		{"p2.xlarge", "p2.xlarge", 1},
		{"p2.8xlarge", "p2.8xlarge", 1},
		{"p2.8xlarge*2", "p2.8xlarge", 2},
		{"p2.16xlarge", "p2.16xlarge", 1},
	}
}

func p3Configs() []clusterConfig {
	return []clusterConfig{
		{"p3.2xlarge", "p3.2xlarge", 1},
		{"p3.8xlarge", "p3.8xlarge", 1},
		{"p3.8xlarge*2", "p3.8xlarge", 2},
		{"p3.16xlarge", "p3.16xlarge", 1},
	}
}

func p3LargeConfigs() []clusterConfig {
	return append(p3Configs(), clusterConfig{"p3.24xlarge", "p3.24xlarge", 1})
}

// multiGPU filters out single-GPU configurations (which have no
// interconnect stall by construction).
func multiGPU(cfgs []clusterConfig) []clusterConfig {
	var out []clusterConfig
	for _, c := range cfgs {
		it, err := cloud.ByName(c.instance)
		if err != nil {
			continue
		}
		if it.NGPUs*c.count > 1 {
			out = append(out, c)
		}
	}
	return out
}

func instanceOf(c clusterConfig) (cloud.InstanceType, error) {
	return cloud.ByName(c.instance)
}

func newJob(m *dnn.Model, batch int) (workload.Job, error) {
	return workload.NewJob(m, batch)
}

// cellErr renders an error cell: OOM cells are expected for oversize
// batches; anything else propagates.
func cellErr(err error) (string, error) {
	var oom *core.OOMError
	if errors.As(err, &oom) {
		return "OOM", nil
	}
	return "", err
}

func smallModels() []*dnn.Model { return dnn.SmallModels() }

// largeJobs returns the paper's large-model workload cells: ResNet50 and
// VGG11 at two batch sizes plus BERT-large at its maximum batch.
func largeJobs() ([]workload.Job, error) {
	var jobs []workload.Job
	for _, m := range dnn.LargeImageModels() {
		for _, bs := range workload.LargeBatchSizes() {
			j, err := newJob(m, bs)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	bert, err := newJob(dnn.BERTLarge(), 4)
	if err != nil {
		return nil, err
	}
	return append(jobs, bert), nil
}

func jobLabel(j workload.Job) string {
	return fmt.Sprintf("%s/bs%d", j.Model.Name, j.BatchPerGPU)
}
