package train

import (
	"testing"
	"time"

	"stash/internal/cloud"
	"stash/internal/collective"
	"stash/internal/dnn"
	"stash/internal/hw"
	"stash/internal/pipeline"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/topo"
	"stash/internal/workload"
)

// rig is a provisioned cluster ready for a training run.
type rig struct {
	eng *sim.Engine
	net *simnet.Network
	top *topo.Topology
	it  cloud.InstanceType
}

func newRig(t *testing.T, instance string, count int, policy cloud.SlicePolicy) *rig {
	t.Helper()
	it, err := cloud.ByName(instance)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	eng := sim.NewEngine()
	net := simnet.New(eng)
	top, err := cloud.NewProvisioner(policy, 1).Provision(net, it, count)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	return &rig{eng: eng, net: net, top: top, it: it}
}

func (r *rig) pipelines(t *testing.T) map[int]*pipeline.HostPipeline {
	t.Helper()
	ps := make(map[int]*pipeline.HostPipeline)
	for node := range r.top.Machines {
		hp, err := pipeline.New(r.eng, r.net, node, pipeline.Config{
			Storage:    r.it.Storage,
			CPU:        r.it.CPU(),
			CacheBytes: r.it.MainMemoryGB * 0.9e9,
		})
		if err != nil {
			t.Fatalf("pipeline.New: %v", err)
		}
		ps[node] = hp
	}
	return ps
}

func resnet18Job(t testing.TB, batch int) workload.Job {
	t.Helper()
	m, err := dnn.ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	job, err := workload.NewJob(m, batch)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func TestRunValidation(t *testing.T) {
	r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	job := resnet18Job(t, 32)
	if _, err := Run(r.eng, r.net, Config{Job: job, Iterations: 1}); err == nil {
		t.Error("nil topology should fail")
	}
	if _, err := Run(r.eng, r.net, Config{Job: job, Topology: r.top, Iterations: 0}); err == nil {
		t.Error("zero iterations should fail")
	}
	if _, err := Run(r.eng, r.net, Config{Job: job, Topology: r.top, Iterations: 1, Synthetic: false}); err == nil {
		t.Error("real data without pipelines should fail")
	}
}

func TestSyntheticSingleGPU(t *testing.T) {
	r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	job := resnet18Job(t, 32)
	res, err := Run(r.eng, r.net, Config{
		Job:        job,
		Topology:   r.top,
		GPUs:       r.top.AllGPUs()[:1],
		Iterations: 10,
		Synthetic:  true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WorldSize != 1 {
		t.Errorf("WorldSize = %d, want 1", res.WorldSize)
	}
	// Single GPU: no communication, elapsed == pure compute.
	if res.CommWaitMax != 0 {
		t.Errorf("CommWaitMax = %v, want 0 on single GPU", res.CommWaitMax)
	}
	if res.Elapsed != res.ComputePerWorker {
		t.Errorf("Elapsed %v != compute %v on single GPU", res.Elapsed, res.ComputePerWorker)
	}
	// Sanity: a ResNet18 bs32 iteration on V100 lands in tens of ms.
	if res.PerIteration < 20*time.Millisecond || res.PerIteration > 300*time.Millisecond {
		t.Errorf("PerIteration = %v, outside plausible V100 range", res.PerIteration)
	}
}

func TestDistributedAddsCommunicationStall(t *testing.T) {
	job := resnet18Job(t, 32)
	single := func() *Result {
		r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
		res, err := Run(r.eng, r.net, Config{
			Job: job, Topology: r.top, GPUs: r.top.AllGPUs()[:1],
			Iterations: 10, Synthetic: true,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}()
	multi := func() *Result {
		r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
		res, err := Run(r.eng, r.net, Config{
			Job: job, Topology: r.top,
			Iterations: 10, Synthetic: true,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}()
	if multi.WorldSize != 8 {
		t.Fatalf("WorldSize = %d, want 8", multi.WorldSize)
	}
	if multi.Elapsed <= single.Elapsed {
		t.Errorf("8-GPU run %v not slower than 1-GPU %v (no interconnect stall?)", multi.Elapsed, single.Elapsed)
	}
	if multi.CommWaitMax == 0 {
		t.Error("8-GPU run reports zero comm wait")
	}
	if multi.CommBusy == 0 {
		t.Error("group busy time is zero")
	}
	// Per-GPU compute is identical (same per-GPU batch and samples).
	if multi.ComputePerWorker != single.ComputePerWorker {
		t.Errorf("compute changed: %v vs %v", multi.ComputePerWorker, single.ComputePerWorker)
	}
}

func TestNVLinkBeatsPCIeForSameModel(t *testing.T) {
	job := resnet18Job(t, 32)
	run := func(instance string) *Result {
		r := newRig(t, instance, 1, cloud.SliceDegraded)
		gpus := r.top.AllGPUs()
		if len(gpus) > 8 {
			gpus = gpus[:8]
		}
		res, err := Run(r.eng, r.net, Config{
			Job: job, Topology: r.top, GPUs: gpus,
			Iterations: 5, Synthetic: true,
		})
		if err != nil {
			t.Fatalf("Run(%s): %v", instance, err)
		}
		return res
	}
	p3 := run("p3.16xlarge")
	p2 := run("p2.8xlarge")
	if p3.Elapsed >= p2.Elapsed {
		t.Errorf("p3.16xlarge (%v) not faster than p2.8xlarge (%v)", p3.Elapsed, p2.Elapsed)
	}
	if p3.CommWaitMax >= p2.CommWaitMax {
		t.Errorf("NVLink comm wait %v not below PCIe %v", p3.CommWaitMax, p2.CommWaitMax)
	}
}

func TestOverlapHidesCommunication(t *testing.T) {
	job := resnet18Job(t, 32)
	run := func(disable bool) *Result {
		r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
		res, err := Run(r.eng, r.net, Config{
			Job: job, Topology: r.top,
			Iterations: 5, Synthetic: true,
			DisableOverlap: disable,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	overlapped, sync := run(false), run(true)
	if overlapped.Elapsed > sync.Elapsed {
		t.Errorf("overlapped %v slower than synchronous %v", overlapped.Elapsed, sync.Elapsed)
	}
}

func TestRealDataWarmCacheMatchesPipelineFreeRun(t *testing.T) {
	// With warm caches and ample CPUs, real-data training should be only
	// slightly slower than synthetic (pipeline hidden by prefetch).
	job := resnet18Job(t, 32)
	r1 := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	synth, err := Run(r1.eng, r1.net, Config{
		Job: job, Topology: r1.top, Iterations: 10, Synthetic: true,
	})
	if err != nil {
		t.Fatalf("Run synthetic: %v", err)
	}
	r2 := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	real, err := Run(r2.eng, r2.net, Config{
		Job: job, Topology: r2.top, Iterations: 10,
		Pipelines: r2.pipelines(t), CacheMode: pipeline.CacheWarm,
	})
	if err != nil {
		t.Fatalf("Run real: %v", err)
	}
	if real.Elapsed < synth.Elapsed {
		t.Errorf("real-data run %v faster than synthetic %v", real.Elapsed, synth.Elapsed)
	}
	if ratio := real.Elapsed.Seconds() / synth.Elapsed.Seconds(); ratio > 1.35 {
		t.Errorf("warm-cache overhead ratio = %.2f, want close to 1", ratio)
	}
}

func TestColdCacheSlowerThanWarm(t *testing.T) {
	job := resnet18Job(t, 32)
	run := func(mode pipeline.CacheMode) *Result {
		r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
		res, err := Run(r.eng, r.net, Config{
			Job: job, Topology: r.top, Iterations: 10,
			Pipelines: r.pipelines(t), CacheMode: mode,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	warm, cold := run(pipeline.CacheWarm), run(pipeline.CacheCold)
	if cold.Elapsed <= warm.Elapsed {
		t.Errorf("cold run %v not slower than warm %v", cold.Elapsed, warm.Elapsed)
	}
	if cold.DataWaitMax <= warm.DataWaitMax {
		t.Errorf("cold data wait %v not above warm %v", cold.DataWaitMax, warm.DataWaitMax)
	}
}

func TestSizedBucketsReduceCollectiveCalls(t *testing.T) {
	job := resnet18Job(t, 32)
	sized, err := collective.SizedBuckets(job.Model, 25e6)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	res, err := Run(r.eng, r.net, Config{
		Job: job, Topology: r.top, Iterations: 3, Synthetic: true,
		Buckets: sized,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Elapsed == 0 {
		t.Fatal("no progress")
	}
	rPer := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	perLayer, err := Run(rPer.eng, rPer.net, Config{
		Job: job, Topology: rPer.top, Iterations: 3, Synthetic: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Coalescing amortizes per-call overhead but delays bucket starts;
	// the two should land close to each other, never wildly apart.
	ratio := res.Elapsed.Seconds() / perLayer.Elapsed.Seconds()
	if ratio > 1.2 || ratio < 0.5 {
		t.Errorf("sized buckets %v vs per-layer %v (ratio %.2f), want comparable", res.Elapsed, perLayer.Elapsed, ratio)
	}
}

func TestMultiNodeSlowerThanSingleNode(t *testing.T) {
	// Stash step 5 vs step 2: same world size, network-connected.
	job := resnet18Job(t, 32)
	r1 := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	intra, err := Run(r1.eng, r1.net, Config{
		Job: job, Topology: r1.top, Iterations: 5, Synthetic: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2 := newRig(t, "p3.8xlarge", 2, cloud.SliceDegraded)
	inter, err := Run(r2.eng, r2.net, Config{
		Job: job, Topology: r2.top, Iterations: 5, Synthetic: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if intra.WorldSize != inter.WorldSize {
		t.Fatalf("world sizes differ: %d vs %d", intra.WorldSize, inter.WorldSize)
	}
	if inter.Elapsed <= intra.Elapsed {
		t.Errorf("network run %v not slower than single instance %v", inter.Elapsed, intra.Elapsed)
	}
}

func TestThroughputAccounting(t *testing.T) {
	r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	job := resnet18Job(t, 32)
	res, err := Run(r.eng, r.net, Config{
		Job: job, Topology: r.top, Iterations: 10, Synthetic: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantSamples := float64(10 * 32 * 8)
	got := res.SamplesPerSecond * res.Elapsed.Seconds()
	if diff := got - wantSamples; diff > 1 || diff < -1 {
		t.Errorf("throughput accounts for %v samples, want %v", got, wantSamples)
	}
}

// TestIterationPlanAllocs pins the allocations of planning an iteration:
// the plan, its layer-to-bucket index and its backward segments.
func TestIterationPlanAllocs(t *testing.T) {
	job := resnet18Job(t, 32)
	buckets := collective.PerLayerBuckets(job.Model)
	got := testing.AllocsPerRun(20, func() {
		if _, err := newIterationPlan(job, hw.V100, buckets); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3 {
		t.Errorf("planning a resnet18 iteration allocates %v times, want at most 3", got)
	}
}
