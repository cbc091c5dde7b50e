package train

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"stash/internal/cloud"
	"stash/internal/collective"
	"stash/internal/dnn"
	"stash/internal/pipeline"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/trace"
	"stash/internal/workload"
)

// cluster names a provisioning: instance type, machine count, GPUs used
// per machine (0 = all), and the VPC jitter draw (fraction and seed).
type cluster struct {
	instance string
	count    int
	gpusPer  int
	jitter   float64
	seed     int64
}

func (c cluster) String() string {
	s := fmt.Sprintf("%dx%s", c.count, c.instance)
	if c.gpusPer > 0 {
		s += fmt.Sprintf("/%dgpu", c.gpusPer)
	}
	if c.jitter > 0 {
		s += fmt.Sprintf("/jitter%.1f-seed%d", c.jitter, c.seed)
	}
	return s
}

// run provisions a fresh copy of the cluster and trains cfg on it (see
// world). It returns the Result and the number of events the run
// scheduled.
func (c cluster) run(t *testing.T, cfg Config) (*Result, uint64) {
	t.Helper()
	eng, net, cfg := c.world(t, cfg)
	res, err := Run(eng, net, cfg)
	if err != nil {
		t.Fatalf("%v: Run: %v", c, err)
	}
	return res, eng.Scheduled()
}

// world provisions a fresh copy of the cluster and returns its engine and
// network, and cfg with its Topology and GPUs filled in from the new
// cluster; a real-data cfg gets the profiler's pipelines and overlap
// setting.
func (c cluster) world(t testing.TB, cfg Config) (*sim.Engine, *simnet.Network, Config) {
	t.Helper()
	it, err := cloud.ByName(c.instance)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net := simnet.New(eng)
	prov := cloud.NewProvisioner(cloud.SliceDegraded, c.seed)
	if err := prov.SetNetworkJitter(c.jitter); err != nil {
		t.Fatal(err)
	}
	top, err := prov.Provision(net, it, c.count)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = top
	if !cfg.Synthetic {
		cfg.Pipelines = map[int]*pipeline.HostPipeline{}
		for node := range top.Machines {
			hp, err := pipeline.New(eng, net, node, pipeline.Config{
				Storage: it.Storage, CPU: it.CPU(), CacheBytes: it.MainMemoryGB * 0.9e9,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Pipelines[node] = hp
		}
		cfg.DisableOverlap = !top.SupportsAsyncCollectives()
	}
	if c.gpusPer > 0 {
		for _, m := range top.Machines {
			cfg.GPUs = append(cfg.GPUs, m.GPUs[:c.gpusPer]...)
		}
	}
	return eng, net, cfg
}

// checkOnePeriod runs cfg on the cluster from one period and from every
// iteration and requires the two Results to be deeply equal, and a
// real-data run's loaders to have handed over every batch. It returns
// the full run's Result and the iterations a real-data run skipped.
func checkOnePeriod(t *testing.T, c cluster, cfg Config) (full *Result, skipped int) {
	t.Helper()
	cfg.EveryIteration = false
	outer := observeProbe
	var skip *skipper
	observeProbe = func(s *skipper) {
		skip, skipped = s, s.skipped
		if outer != nil {
			outer(s)
		}
	}
	period, _ := c.run(t, cfg)
	observeProbe = outer
	if skip != nil {
		for _, w := range skip.workers {
			if n := w.loader.Skippable(); n != 0 || !w.loader.Drained() {
				t.Errorf("%v %v warmup %d iterations %d: rank %d's loader ends with %d batches queued, drained %v",
					c, cfg.CacheMode, cfg.Warmup, cfg.Iterations, w.rank, n, w.loader.Drained())
			}
		}
	}
	cfg.EveryIteration = true
	full, _ = c.run(t, cfg)
	if !reflect.DeepEqual(period, full) {
		t.Errorf("%v %v warmup %d iterations %d: one period diverges from the full run:\n got %+v\nwant %+v",
			c, cfg.CacheMode, cfg.Warmup, cfg.Iterations, *period, *full)
	}
	return full, skipped
}

func mustJob(t *testing.T, m *dnn.Model, batch int) workload.Job {
	t.Helper()
	job, err := workload.NewJob(m, batch)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// fabrics are the fabric classes the profiler meets.
var fabrics = []cluster{
	{instance: "p3.16xlarge", count: 1, gpusPer: 1, seed: 1}, // 1 GPU, no collectives
	{instance: "p2.16xlarge", count: 1, seed: 1},             // PCIe
	{instance: "p3.8xlarge", count: 1, seed: 1},              // sliced NVLink
	{instance: "p3.16xlarge", count: 1, seed: 1},             // whole NVLink crossbar
	{instance: "p3.8xlarge", count: 2, seed: 1},              // VPC
}

// TestOnePeriodMatchesFullRun is the differential oracle for the
// one-period path: over every fabric class the profiler meets, overlap
// on and off, and a grid of warmup and measured step counts, a synthetic
// run scaled from one simulated step equals the run that simulates every
// step, field for field. Compression, sized buckets, the parameter
// server and jittered VPC draws ride along on representative fabrics.
// Real-data runs that skip their repeated periods must equal the full
// run too, and must skip somewhere on each fabric and cache mode.
func TestOnePeriodMatchesFullRun(t *testing.T) {
	job := resnet18Job(t, 32)
	for _, c := range fabrics {
		for _, overlap := range []bool{true, false} {
			for _, warmup := range []int{0, 2, 3} {
				for _, iters := range []int{1, 7, 20} {
					checkOnePeriod(t, c, Config{
						Job: job, Iterations: iters, Warmup: warmup, Synthetic: true,
						DisableOverlap: !overlap,
					})
				}
			}
		}
	}

	vgg, err := dnn.VGG(11)
	if err != nil {
		t.Fatal(err)
	}
	vggJob, err := workload.NewJob(vgg, 32)
	if err != nil {
		t.Fatal(err)
	}
	sized, err := collective.SizedBuckets(job.Model, 25e6)
	if err != nil {
		t.Fatal(err)
	}
	vpc := cluster{instance: "p3.8xlarge", count: 2, seed: 1}
	nvlink := cluster{instance: "p3.16xlarge", count: 1, seed: 1}
	for _, tc := range []struct {
		c   cluster
		cfg Config
	}{
		{nvlink, Config{Job: job, CompressionRatio: 0.25}},
		{vpc, Config{Job: job, CompressionRatio: 0.25, DisableOverlap: true}},
		{nvlink, Config{Job: job, Buckets: sized}},
		{vpc, Config{Job: job, Buckets: sized, DisableOverlap: true}},
		{nvlink, Config{Job: job, CollectiveOptions: []collective.Option{collective.WithAlgorithm(collective.ParameterServer)}}},
		{vpc, Config{Job: job, DisableOverlap: true,
			CollectiveOptions: []collective.Option{collective.WithAlgorithm(collective.ParameterServer)}}},
	} {
		tc.cfg.Iterations, tc.cfg.Warmup, tc.cfg.Synthetic = 7, 3, true
		checkOnePeriod(t, tc.c, tc.cfg)
	}
	for seed := int64(1); seed <= 4; seed++ {
		c := cluster{instance: "p3.8xlarge", count: 2, jitter: 0.4, seed: seed}
		checkOnePeriod(t, c, Config{Job: job, Iterations: 7, Warmup: 2, Synthetic: true, DisableOverlap: true})
		checkOnePeriod(t, c, Config{Job: vggJob, Iterations: 7, Warmup: 2, Synthetic: true, DisableOverlap: true})
	}

	// Real data: a run that skips its repeated periods, over PCIe, NVLink
	// and two-node VPC fabrics, cold and warm caches, and a grid of warmup
	// and measured step counts that puts the warmup boundary before the
	// skipped iterations, among them, at their end and after them; then
	// a fetch-bound cell (eight GPUs reading large batches from one gp2
	// volume, cold) and a prep-bound one (SqueezeNet's light compute on a
	// warm cache, where eight vCPUs set the pace).
	realFabrics := []cluster{
		{instance: "p2.8xlarge", count: 1, seed: 1},  // PCIe
		{instance: "p3.16xlarge", count: 1, seed: 1}, // whole NVLink crossbar
		{instance: "p3.8xlarge", count: 2, seed: 1},  // VPC
	}
	// Where the warmup boundary falls, per skip, and for the skips made
	// once the loaders were drained.
	placements, drained := map[string]int{}, map[string]int{}
	var seen *skipper
	before := 0
	observeProbe = func(s *skipper) {
		if s != seen {
			seen, before = s, 0
		}
		k := s.skipped - before
		before = s.skipped
		if k == 0 {
			return
		}
		var p string
		switch w := s.workers[0].cfg.Warmup; {
		case w <= s.it:
			p = "before"
		case w < s.it+k:
			p = "inside"
		case w == s.it+k:
			p = "at the end"
		default:
			p = "after"
		}
		placements[p]++
		if s.workers[0].loader.Drained() {
			drained[p]++
		}
	}
	for _, c := range realFabrics {
		for _, mode := range []pipeline.CacheMode{pipeline.CacheCold, pipeline.CacheWarm} {
			skipped := 0
			for _, warmup := range []int{0, 1, 3, 6, 10} {
				for _, iters := range []int{1, 2, 7, 20} {
					_, n := checkOnePeriod(t, c, Config{Job: job, Iterations: iters, Warmup: warmup, CacheMode: mode})
					skipped += n
				}
			}
			if skipped == 0 {
				t.Errorf("%v %v: no run skipped a period", c, mode)
			}
		}
	}
	observeProbe = nil
	for _, p := range []string{"before", "inside", "at the end", "after"} {
		if placements[p] == 0 {
			t.Errorf("no skip with the warmup boundary %s the skipped iterations: %v", p, placements)
		}
	}
	if drained["inside"] == 0 {
		t.Errorf("no skip over drained loaders with the warmup boundary inside the skipped iterations: %v", drained)
	}

	squeezenet, err := dnn.ByName("squeezenet1_1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		instance string
		job      workload.Job
		mode     pipeline.CacheMode
	}{
		{"fetch-bound", "p3.16xlarge", resnet18Job(t, 128), pipeline.CacheCold},
		{"prep-bound", "p3.2xlarge", mustJob(t, squeezenet, 128), pipeline.CacheWarm},
	} {
		c := cluster{instance: tc.instance, count: 1, seed: 1}
		cfg := Config{Job: tc.job, Iterations: 20, Warmup: 3, CacheMode: tc.mode}
		full, skipped := checkOnePeriod(t, c, cfg)
		if skipped == 0 {
			t.Errorf("%s: no period skipped", tc.name)
		}
		if full.DataWaitMax == 0 {
			t.Errorf("%s: no data stall", tc.name)
		}
	}
}

// TestRealDataSkipWorkCounts pins the work a real-data run simulates:
// the iterations and the engine events. A cold and a warm p3.16xlarge
// cell skip all but the steps up to the first boundary that repeats the
// one before it, warmup or not, the steps in which the loaders fetch
// their last batches and drain, and the last step, at 12 and 20
// measured iterations; a 16-GPU cell whose pace changes once its loaders
// have fetched their last batch simulates the change exactly and skips
// the drained steps after it; and a cell whose steps never settle into
// a period simulates every step, plus the probe events at its
// boundaries. The cells are the suite's at seed 1.
func TestRealDataSkipWorkCounts(t *testing.T) {
	mobilenet, err := dnn.ByName("mobilenet_v2")
	if err != nil {
		t.Fatal(err)
	}
	alexnet, err := dnn.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		c        cluster
		job      workload.Job
		mode     pipeline.CacheMode
		iters    int
		simulate int    // iterations simulated, warmup included
		events   uint64 // events scheduled
	}{
		{"cold", cluster{instance: "p3.16xlarge", count: 1, seed: 1}, resnet18Job(t, 32), pipeline.CacheCold, 12, 3, 2262},
		{"cold", cluster{instance: "p3.16xlarge", count: 1, seed: 1}, resnet18Job(t, 32), pipeline.CacheCold, 20, 3, 2262},
		{"warm", cluster{instance: "p3.16xlarge", count: 1, seed: 1}, resnet18Job(t, 32), pipeline.CacheWarm, 12, 6, 4235},
		{"warm", cluster{instance: "p3.16xlarge", count: 1, seed: 1}, resnet18Job(t, 32), pipeline.CacheWarm, 20, 6, 4235},
		// 231.57 ms steps, then 197.68 ms for the last three.
		{"loader-end tail", cluster{instance: "p2.16xlarge", count: 1, seed: 1}, mustJob(t, mobilenet, 32), pipeline.CacheWarm, 12, 7, 19040},
		// Every step but the loaders' last fetch takes its own time.
		{"non-periodic", cluster{instance: "p2.16xlarge", count: 1, seed: 1}, mustJob(t, alexnet, 32), pipeline.CacheCold, 12, 15, 5787},
	} {
		const warmup = 3
		cfg := Config{Job: tc.job, Iterations: tc.iters, Warmup: warmup, CacheMode: tc.mode}
		skipped := 0
		observeProbe = func(s *skipper) { skipped = s.skipped }
		_, events := tc.c.run(t, cfg)
		observeProbe = nil
		cfg.EveryIteration = true
		_, full := tc.c.run(t, cfg)
		if got := warmup + tc.iters - skipped; got != tc.simulate || events != tc.events {
			t.Errorf("%s %v at %d iterations: simulated %d iterations and %d events, want %d and %d (the full run schedules %d)",
				tc.name, tc.c, tc.iters, got, events, tc.simulate, tc.events, full)
		}
		if skipped > 0 && events >= full {
			t.Errorf("%s %v at %d iterations: skipped %d iterations but scheduled %d events, the full run %d",
				tc.name, tc.c, tc.iters, skipped, events, full)
		}
	}
}

// TestEqualStepTimesDoNotSkip is the fingerprint's negative case. A warm
// AlexNet run on p3.2xlarge is compute-bound from its second step: every
// step takes the same time while the loader, only a little faster than
// the GPU, fetches further ahead every other step until its prefetch
// credits run out. Boundaries whose steps took equal time but whose
// loader is at a different depth must not skip; the run skips only once
// the depth, and the rest of the state, repeats. The depth is compared
// while the loader fetches: a drained loader's buffer shrinks by one
// every step, and its boundaries may match regardless.
func TestEqualStepTimesDoNotSkip(t *testing.T) {
	alexnet, err := dnn.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		it, ahead, skipped int
		drained            bool
		at                 time.Duration
	}
	var probes []probe
	before := 0 // the iterations skipped before the probe
	observeProbe = func(s *skipper) {
		w := s.workers[0]
		probes = append(probes, probe{
			it: s.it, ahead: w.total - w.loader.Unfetched() - s.skipped - s.it, skipped: s.skipped - before,
			drained: w.loader.Drained(), at: s.cur.at,
		})
		before = s.skipped
	}
	c := cluster{instance: "p3.2xlarge", count: 1, seed: 1}
	cfg := Config{Job: mustJob(t, alexnet, 128), Iterations: 20, CacheMode: pipeline.CacheWarm}
	_, skipped := checkOnePeriod(t, c, cfg)
	observeProbe = nil
	if skipped == 0 {
		t.Fatal("the run never skipped")
	}
	negatives := 0
	for k := 2; k < len(probes); k++ {
		a, b := probes[k-1], probes[k]
		if b.at-a.at != a.at-probes[k-2].at || a.drained || b.drained || a.ahead == b.ahead {
			continue
		}
		negatives++
		if b.skipped > 0 {
			t.Errorf("skipped %d at boundary %d: its step took as long as the one before, but the loader is %d batches ahead, not %d",
				b.skipped, b.it, b.ahead, a.ahead)
		}
	}
	if negatives == 0 {
		t.Fatalf("no boundary after an equal step with a different loader depth: %+v", probes)
	}
}

// TestOnePeriodSkipsStragglerRuns pins the straggler guard: a straggler
// run is not periodic from iteration zero (the slow rank leaves each
// optimizer step late, so later steps start out of phase), and Run must
// simulate it in full whatever EveryIteration says.
func TestOnePeriodSkipsStragglerRuns(t *testing.T) {
	c := cluster{instance: "p3.16xlarge", count: 1, seed: 1}
	cfg := Config{
		Job: resnet18Job(t, 32), Iterations: 6, Warmup: 3, Synthetic: true,
		StragglerRank: 1, StragglerScale: 1.5,
	}
	checkOnePeriod(t, c, cfg)
}

// TestOnePeriodSkipsTracedRuns pins the trace guard: a traced run is
// simulated in full, so its timeline holds every warmup and measured
// step.
func TestOnePeriodSkipsTracedRuns(t *testing.T) {
	const warmup, iters = 2, 5
	rec := trace.New()
	cluster{instance: "p3.16xlarge", count: 1, seed: 1}.run(t, Config{
		Job: resnet18Job(t, 32), Iterations: iters, Warmup: warmup, Synthetic: true,
		Trace: rec,
	})
	forward := map[int]int{}
	for _, s := range rec.Spans() {
		if s.Kind == trace.KindForward {
			forward[s.Worker]++
		}
	}
	if len(forward) != 8 {
		t.Fatalf("forward spans on %d workers, want 8", len(forward))
	}
	for w, n := range forward {
		if n != warmup+iters {
			t.Errorf("worker %d recorded %d forward spans, want %d", w, n, warmup+iters)
		}
	}
}

// TestTracedRunMatchesUntraced pins the folded hook: an untraced worker
// schedules one event for a backward segment and its DDP hook, where a
// traced one schedules two to record both spans, and the two runs must
// agree field for field. Over every fabric class, synthetic with overlap
// on and off and real data on cold and warm caches, every step simulated.
func TestTracedRunMatchesUntraced(t *testing.T) {
	job := resnet18Job(t, 32)
	for _, c := range fabrics {
		for _, cfg := range []Config{
			{Synthetic: true},
			{Synthetic: true, DisableOverlap: true},
			{CacheMode: pipeline.CacheCold},
			{CacheMode: pipeline.CacheWarm},
		} {
			cfg.Job, cfg.Iterations, cfg.Warmup, cfg.EveryIteration = job, 5, 2, true
			untraced, _ := c.run(t, cfg)
			cfg.Trace = trace.New()
			traced, _ := c.run(t, cfg)
			if !reflect.DeepEqual(traced, untraced) {
				t.Errorf("%v synthetic %v overlap %v %v: traced run diverges:\n got %+v\nwant %+v",
					c, cfg.Synthetic, !cfg.DisableOverlap, cfg.CacheMode, *traced, *untraced)
			}
		}
	}
}
