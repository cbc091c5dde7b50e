package train

import (
	"fmt"
	"reflect"
	"testing"

	"stash/internal/cloud"
	"stash/internal/collective"
	"stash/internal/dnn"
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

// run provisions a fresh copy of the cluster and trains cfg on it; cfg's
// Topology and GPUs are filled in from the new cluster.
func (c cluster) run(t *testing.T, cfg Config) *Result {
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
	if c.gpusPer > 0 {
		for _, m := range top.Machines {
			cfg.GPUs = append(cfg.GPUs, m.GPUs[:c.gpusPer]...)
		}
	}
	res, err := Run(eng, net, cfg)
	if err != nil {
		t.Fatalf("%v: Run: %v", c, err)
	}
	return res
}

// checkOnePeriod runs cfg on the cluster from one period and from every
// iteration and requires the two Results to be deeply equal.
func checkOnePeriod(t *testing.T, c cluster, cfg Config) {
	t.Helper()
	cfg.EveryIteration = false
	period := c.run(t, cfg)
	cfg.EveryIteration = true
	full := c.run(t, cfg)
	if !reflect.DeepEqual(period, full) {
		t.Errorf("%v warmup %d iterations %d: one period diverges from the full run:\n got %+v\nwant %+v",
			c, cfg.Warmup, cfg.Iterations, *period, *full)
	}
}

// TestOnePeriodMatchesFullRun is the differential oracle for the
// one-period path: over every fabric class the profiler meets, overlap
// on and off, and a grid of warmup and measured step counts, a synthetic
// run scaled from one simulated step equals the run that simulates every
// step, field for field. Compression, sized buckets, the parameter
// server and jittered VPC draws ride along on representative fabrics.
func TestOnePeriodMatchesFullRun(t *testing.T) {
	job := resnet18Job(t, 32)
	fabrics := []cluster{
		{instance: "p3.16xlarge", count: 1, gpusPer: 1, seed: 1}, // 1 GPU, no collectives
		{instance: "p2.16xlarge", count: 1, seed: 1},             // PCIe
		{instance: "p3.8xlarge", count: 1, seed: 1},              // sliced NVLink
		{instance: "p3.16xlarge", count: 1, seed: 1},             // whole NVLink crossbar
		{instance: "p3.8xlarge", count: 2, seed: 1},              // VPC
	}
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
