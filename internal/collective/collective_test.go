package collective

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"stash/internal/dnn"
	"stash/internal/hw"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/topo"
)

// rig builds an engine+network+cluster for collective tests.
type rig struct {
	eng *sim.Engine
	net *simnet.Network
	top *topo.Topology
}

func newRig(t *testing.T, specs ...topo.MachineSpec) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := simnet.New(eng)
	top, err := topo.BuildCluster(net, specs)
	if err != nil {
		t.Fatalf("BuildCluster: %v", err)
	}
	return &rig{eng: eng, net: net, top: top}
}

func nvlinkMachine(n int) topo.MachineSpec {
	return topo.MachineSpec{
		GPU: hw.V100, NGPUs: n,
		Interconnect:         topo.InterconnectNVLink,
		PCIe:                 hw.PCIeGen3x16,
		RootComplexBandwidth: 48 * hw.GB,
		NVLink:               hw.NVLink2,
		NetworkGbps:          25,
	}
}

func pcieMachine(n int, rootBW float64) topo.MachineSpec {
	return topo.MachineSpec{
		GPU: hw.K80, NGPUs: n,
		Interconnect:         topo.InterconnectPCIe,
		PCIe:                 hw.PCIeGen3x16,
		RootComplexBandwidth: rootBW,
		NetworkGbps:          10,
	}
}

// spawnAllReduce spawns one task per rank that waits until start, issues
// an all-reduce of bytes, and records in *done the latest completion time
// any rank has seen.
func spawnAllReduce(e *sim.Engine, g *Group, rank int, start time.Duration, bytes float64, done *time.Duration) {
	var task *sim.Task
	task = e.Spawn("worker", func() {
		task.After(start, func() {
			g.AllReduceAsync(rank, bytes).OnFire(func() {
				if t := e.Now(); t > *done {
					*done = t
				}
				task.End()
			})
		})
	})
}

// runAllReduce has every rank issue one all-reduce of bytes and returns
// the completion time.
func runAllReduce(t *testing.T, r *rig, g *Group, bytes float64) time.Duration {
	t.Helper()
	var done time.Duration
	for rank := 0; rank < g.WorldSize(); rank++ {
		spawnAllReduce(r.eng, g, rank, 0, bytes, &done)
	}
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return done
}

func TestGroupValidation(t *testing.T) {
	r := newRig(t, nvlinkMachine(4))
	if _, err := NewGroup(r.eng, r.net, r.top, nil); err == nil {
		t.Error("empty group should fail")
	}
	if _, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs(), WithAlgorithm(Algorithm(99))); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestSingleRankIsFree(t *testing.T) {
	r := newRig(t, nvlinkMachine(4))
	g, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs()[:1])
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	d := runAllReduce(t, r, g, 100*hw.MB)
	if d != 0 {
		t.Errorf("single-rank all-reduce took %v, want 0", d)
	}
}

func TestRingTimeMatchesClosedForm(t *testing.T) {
	// On a full crossbar with dedicated links, ring time is
	// callOverhead + 2(p-1) x (routeLatency + chunk/bw).
	const world = 8
	bytes := 480 * hw.MB
	r := newRig(t, nvlinkMachine(world))
	g, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs())
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	got := runAllReduce(t, r, g, bytes)
	chunk := bytes / world
	stepSeconds := chunk / hw.NVLink2.Bandwidth
	want := DefaultCallOverhead +
		time.Duration(2*(world-1))*(hw.NVLink2.Latency+time.Duration(stepSeconds*float64(time.Second)))
	if diff := (got - want).Abs(); diff > want/50 {
		t.Errorf("ring time = %v, want ~%v", got, want)
	}
}

func TestRingThrottledByNetworkHop(t *testing.T) {
	// Two 2-GPU machines: the ring crosses the 10 Gbps NIC twice, so the
	// whole collective runs at network speed even though NVLink is free.
	r := newRig(t, nvlinkMachine(2), nvlinkMachine(2))
	g, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs())
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	bytes := 100 * hw.MB
	got := runAllReduce(t, r, g, bytes)
	// Lower bound: total bytes crossing one NIC direction at 25 Gbps wait,
	// nvlinkMachine says 25 Gbps: steps x chunk / nicBW.
	nicBW := 25.0 * hw.GbpsBytes
	minSeconds := 6 * (bytes / 4) / nicBW
	if got.Seconds() < minSeconds {
		t.Errorf("ring over network = %v, below NIC bound %vs", got, minSeconds)
	}
	// And far slower than the same world size on one machine.
	r2 := newRig(t, nvlinkMachine(4))
	g2, err := NewGroup(r2.eng, r2.net, r2.top, r2.top.AllGPUs())
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	intra := runAllReduce(t, r2, g2, bytes)
	if got < 3*intra {
		t.Errorf("network ring %v not >> intra-node ring %v", got, intra)
	}
}

func TestPCIeRingContention(t *testing.T) {
	// 8 K80s on a shared 24 GB/s root: all 8 ring flows cross it, so each
	// step runs at ~3 GB/s per flow, not PCIe's 12.
	const world = 8
	bytes := 96 * hw.MB
	r := newRig(t, pcieMachine(world, 24*hw.GB))
	g, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs(), WithCallOverhead(0))
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	got := runAllReduce(t, r, g, bytes)
	chunk := bytes / world
	perFlowBW := 24 * hw.GB / float64(world)
	want := 2 * (world - 1) * (chunk / perFlowBW)
	if math.Abs(got.Seconds()-want)/want > 0.05 {
		t.Errorf("PCIe ring = %v, want ~%vs (root-complex shared)", got, want)
	}
}

func TestSmallerRootBudgetIsSlower(t *testing.T) {
	run := func(rootBW float64, world int) time.Duration {
		r := newRig(t, pcieMachine(world, rootBW))
		g, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs())
		if err != nil {
			t.Fatalf("NewGroup: %v", err)
		}
		return runAllReduce(t, r, g, 40*hw.MB)
	}
	// The p2.16xlarge pathology: more GPUs on less fabric.
	if t8, t16 := run(24*hw.GB, 8), run(6*hw.GB, 16); t16 < 4*t8 {
		t.Errorf("16-GPU/6GBps ring %v not >> 8-GPU/24GBps ring %v", t16, t8)
	}
}

func TestPSSlowerThanRingAcrossNetwork(t *testing.T) {
	// §III: parameter-server performance is strictly worse than
	// all-reduce (every byte converges on one server link).
	specs := []topo.MachineSpec{nvlinkMachine(2), nvlinkMachine(2)}
	bytes := 50 * hw.MB

	r1 := newRig(t, specs...)
	ring, err := NewGroup(r1.eng, r1.net, r1.top, r1.top.AllGPUs())
	if err != nil {
		t.Fatalf("NewGroup(ring): %v", err)
	}
	ringTime := runAllReduce(t, r1, ring, bytes)

	r2 := newRig(t, specs...)
	ps, err := NewGroup(r2.eng, r2.net, r2.top, r2.top.AllGPUs(), WithAlgorithm(ParameterServer))
	if err != nil {
		t.Fatalf("NewGroup(ps): %v", err)
	}
	psTime := runAllReduce(t, r2, ps, bytes)

	if psTime <= ringTime {
		t.Errorf("PS %v not slower than ring %v", psTime, ringTime)
	}
}

func TestCollectivesSerializeInOrder(t *testing.T) {
	// Two back-to-back all-reduces take ~2x one (stream serialization).
	r := newRig(t, nvlinkMachine(4))
	g, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs(), WithCallOverhead(0))
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	bytes := 120 * hw.MB
	var done time.Duration
	for rank := 0; rank < 4; rank++ {
		rank := rank
		var task *sim.Task
		task = r.eng.Spawn("worker", func() {
			s1 := g.AllReduceAsync(rank, bytes)
			s2 := g.AllReduceAsync(rank, bytes)
			s1.OnFire(func() {
				s2.OnFire(func() {
					done = r.eng.Now()
					task.End()
				})
			})
		})
	}
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r1 := newRig(t, nvlinkMachine(4))
	g1, err := NewGroup(r1.eng, r1.net, r1.top, r1.top.AllGPUs(), WithCallOverhead(0))
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	one := runAllReduce(t, r1, g1, bytes)
	if ratio := done.Seconds() / one.Seconds(); ratio < 1.9 || ratio > 2.1 {
		t.Errorf("two collectives = %.2fx one, want ~2x", ratio)
	}
	if g.OpsCompleted() != 2 {
		t.Errorf("OpsCompleted = %d, want 2", g.OpsCompleted())
	}
	if got := g.BytesReduced(); got != 2*bytes {
		t.Errorf("BytesReduced = %v, want %v", got, 2*bytes)
	}
}

func TestAllReduceWaitsForAllRanks(t *testing.T) {
	// The collective cannot start until the slowest rank issues it.
	r := newRig(t, nvlinkMachine(4))
	g, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs(), WithCallOverhead(0))
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	var done time.Duration
	for rank := 0; rank < 4; rank++ {
		var start time.Duration
		if rank == 3 {
			start = time.Second // straggler
		}
		spawnAllReduce(r.eng, g, rank, start, hw.MB, &done)
	}
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done < time.Second {
		t.Errorf("collective finished at %v, before straggler arrived", done)
	}
}

func TestMismatchedBytesPanics(t *testing.T) {
	r := newRig(t, nvlinkMachine(2))
	g, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs())
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	g.AllReduceAsync(0, 100)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched bytes")
		}
	}()
	g.AllReduceAsync(1, 200)
}

func TestRankOutOfRangePanics(t *testing.T) {
	r := newRig(t, nvlinkMachine(2))
	g, err := NewGroup(r.eng, r.net, r.top, r.top.AllGPUs())
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad rank")
		}
	}()
	g.AllReduceAsync(5, 100)
}

func TestAlgorithmString(t *testing.T) {
	if Ring.String() != "ring-allreduce" || ParameterServer.String() != "parameter-server" {
		t.Error("Algorithm strings wrong")
	}
	if Algorithm(0).String() != "Algorithm(0)" {
		t.Error("unknown Algorithm string wrong")
	}
}

func TestPerLayerBuckets(t *testing.T) {
	m, err := dnn.ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	buckets := PerLayerBuckets(m)
	if len(buckets) != m.NumParamLayers() {
		t.Errorf("buckets = %d, want %d (one per param layer)", len(buckets), m.NumParamLayers())
	}
	if got, want := TotalBytes(buckets), m.GradientBytes(); math.Abs(got-want) > 1 {
		t.Errorf("bucket bytes = %v, want %v", got, want)
	}
	// Backward order: first bucket is the model's last param layer.
	last := -1
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if m.Layers[i].Params > 0 {
			last = i
			break
		}
	}
	if buckets[0].Layers[0] != last {
		t.Errorf("first bucket layer = %d, want %d (backward order)", buckets[0].Layers[0], last)
	}
}

func TestSizedBuckets(t *testing.T) {
	m, err := dnn.VGG(11)
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := SizedBuckets(m, 25*hw.MB)
	if err != nil {
		t.Fatalf("SizedBuckets: %v", err)
	}
	if got, want := TotalBytes(buckets), m.GradientBytes(); math.Abs(got-want) > 1 {
		t.Errorf("bucket bytes = %v, want %v", got, want)
	}
	perLayer := PerLayerBuckets(m)
	if len(buckets) >= len(perLayer) {
		t.Errorf("sized buckets (%d) should coalesce below per-layer (%d)", len(buckets), len(perLayer))
	}
	// All but the last bucket must meet the cap.
	for i, b := range buckets[:len(buckets)-1] {
		if b.Bytes < 25*hw.MB {
			t.Errorf("bucket %d = %v bytes, below cap", i, b.Bytes)
		}
	}
	if _, err := SizedBuckets(m, 0); err == nil {
		t.Error("zero bucket size should fail")
	}
}

// Property: sized buckets partition the param layers exactly once for any
// cap.
func TestQuickSizedBucketsPartition(t *testing.T) {
	m, err := dnn.ResNet(50)
	if err != nil {
		t.Fatal(err)
	}
	f := func(capMB uint16) bool {
		buckets, err := SizedBuckets(m, float64(capMB+1)*hw.MB)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, b := range buckets {
			for _, li := range b.Layers {
				if seen[li] {
					return false
				}
				seen[li] = true
			}
		}
		return len(seen) == m.NumParamLayers() &&
			math.Abs(TotalBytes(buckets)-m.GradientBytes()) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPerLayerBucketsAllocs pins PerLayerBuckets to two allocations, the
// buckets and one array that holds every bucket's layer.
func TestPerLayerBucketsAllocs(t *testing.T) {
	m, err := dnn.ResNet(50)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() { PerLayerBuckets(m) })
	if got > 2 {
		t.Errorf("PerLayerBuckets(resnet50) allocates %v times, want at most 2", got)
	}
}
