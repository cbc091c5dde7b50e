package cloud

import (
	"math"
	"testing"
	"time"

	"stash/internal/hw"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/topo"
)

func TestCatalogMatchesTableI(t *testing.T) {
	want := []struct {
		name   string
		ngpus  int
		vcpus  int
		gpuMem float64
		price  float64
	}{
		{"p4d.24xlarge", 8, 96, 320, 32.7726},
		{"p3.2xlarge", 1, 8, 16, 3.06},
		{"p3.8xlarge", 4, 32, 64, 12.24},
		{"p3.16xlarge", 8, 64, 128, 24.48},
		{"p3.24xlarge", 8, 96, 256, 31.218},
		{"p2.xlarge", 1, 4, 12, 0.90},
		{"p2.8xlarge", 8, 32, 96, 7.20},
		{"p2.16xlarge", 16, 64, 192, 14.40},
	}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d rows, want %d", len(cat), len(want))
	}
	for i, w := range want {
		it := cat[i]
		if it.Name != w.name || it.NGPUs != w.ngpus || it.VCPUs != w.vcpus ||
			it.GPUMemoryGB != w.gpuMem || it.PricePerHour != w.price {
			t.Errorf("row %d = %+v, want %+v", i, it, w)
		}
	}
}

func TestByName(t *testing.T) {
	it, err := ByName("p3.16xlarge")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if it.GPU.Name != "V100" || it.NGPUs != 8 {
		t.Errorf("p3.16xlarge = %s x%d", it.GPU.Name, it.NGPUs)
	}
	if _, err := ByName("m5.large"); err == nil {
		t.Error("ByName(m5.large) should fail")
	}
}

func TestGPUMemPerGPU(t *testing.T) {
	p3x16, _ := ByName("p3.16xlarge")
	if got := p3x16.GPUMemPerGPU(); got != 16e9 {
		t.Errorf("p3.16xlarge per-GPU memory = %v, want 16e9", got)
	}
	p324, _ := ByName("p3.24xlarge")
	if got := p324.GPUMemPerGPU(); got != 32e9 {
		t.Errorf("p3.24xlarge per-GPU memory = %v, want 32e9", got)
	}
}

func TestCost(t *testing.T) {
	it, _ := ByName("p3.16xlarge")
	got := it.Cost(30*time.Minute, 2)
	want := 24.48 * 0.5 * 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	if c := it.Cost(0, 5); c != 0 {
		t.Errorf("zero-duration cost = %v", c)
	}
}

func TestPriceOrdering(t *testing.T) {
	// Bigger instances in a family cost more.
	prices := map[string]float64{}
	for _, it := range Catalog() {
		prices[it.Name] = it.PricePerHour
	}
	if !(prices["p2.xlarge"] < prices["p2.8xlarge"] && prices["p2.8xlarge"] < prices["p2.16xlarge"]) {
		t.Error("P2 prices not increasing")
	}
	if !(prices["p3.2xlarge"] < prices["p3.8xlarge"] && prices["p3.8xlarge"] < prices["p3.16xlarge"] && prices["p3.16xlarge"] < prices["p3.24xlarge"]) {
		t.Error("P3 prices not increasing")
	}
}

func TestP2RootBudgetAnomaly(t *testing.T) {
	// The Fig-7 quirk: per-GPU root-complex share collapses on 16xlarge.
	p8, _ := ByName("p2.8xlarge")
	p16, _ := ByName("p2.16xlarge")
	share8 := p8.RootComplexBandwidth / float64(p8.NGPUs)
	share16 := p16.RootComplexBandwidth / float64(p16.NGPUs)
	if share16 >= share8/2 {
		t.Errorf("p2.16xlarge per-GPU share %v should be far below p2.8xlarge %v", share16, share8)
	}
	// And it is below even the instance's network rating, the condition
	// that makes 8xlarge*2 beat 16xlarge (§V-A1).
	if share16 >= p16.NetworkGbps*hw.GbpsBytes {
		t.Error("p2.16xlarge per-GPU interconnect share should be below network bandwidth")
	}
}

func TestProvisionerPolicies(t *testing.T) {
	it, _ := ByName("p3.8xlarge")
	deg := NewProvisioner(SliceDegraded, 1).MachineSpec(it)
	if deg.Interconnect != topo.InterconnectNVLinkDegraded {
		t.Errorf("SliceDegraded gave %v", deg.Interconnect)
	}
	clean := NewProvisioner(SliceClean, 1).MachineSpec(it)
	if clean.Interconnect != topo.InterconnectNVLink {
		t.Errorf("SliceClean gave %v", clean.Interconnect)
	}
}

func TestProvisionerLotteryRate(t *testing.T) {
	it, _ := ByName("p3.8xlarge")
	p := NewProvisioner(SliceLottery, 42)
	degraded := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if p.MachineSpec(it).Interconnect == topo.InterconnectNVLinkDegraded {
			degraded++
		}
	}
	rate := float64(degraded) / n
	if math.Abs(rate-it.DegradedSliceProb) > 0.05 {
		t.Errorf("lottery rate = %v, want ~%v", rate, it.DegradedSliceProb)
	}
}

func TestLotteryNeverDegradesWholeCrossbarTypes(t *testing.T) {
	p := NewProvisioner(SliceLottery, 7)
	for _, name := range []string{"p3.16xlarge", "p3.24xlarge"} {
		it, _ := ByName(name)
		for i := 0; i < 100; i++ {
			if p.MachineSpec(it).Interconnect != topo.InterconnectNVLink {
				t.Errorf("%s got degraded interconnect", name)
			}
		}
	}
	it, _ := ByName("p2.16xlarge")
	if p.MachineSpec(it).Interconnect != topo.InterconnectPCIe {
		t.Error("P2 interconnect should stay PCIe")
	}
}

func TestProvisionBuildsCluster(t *testing.T) {
	e := sim.NewEngine()
	net := simnet.New(e)
	it, _ := ByName("p3.8xlarge")
	p := NewProvisioner(SliceDegraded, 1)
	top, err := p.Provision(net, it, 2)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if top.NumGPUs() != 8 {
		t.Errorf("cluster GPUs = %d, want 8", top.NumGPUs())
	}
	if len(top.Machines) != 2 {
		t.Errorf("machines = %d, want 2", len(top.Machines))
	}
	if _, err := p.Provision(net, it, 0); err == nil {
		t.Error("Provision with count 0 should fail")
	}
}

func TestLotteryDeterministicPerSeed(t *testing.T) {
	it, _ := ByName("p3.8xlarge")
	draw := func(seed int64) []topo.Interconnect {
		p := NewProvisioner(SliceLottery, seed)
		var out []topo.Interconnect
		for i := 0; i < 20; i++ {
			out = append(out, p.MachineSpec(it).Interconnect)
		}
		return out
	}
	a, b := draw(123), draw(123)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different lottery outcomes")
		}
	}
}

func TestNetworkJitter(t *testing.T) {
	it, _ := ByName("p3.8xlarge")
	p := NewProvisioner(SliceDegraded, 3)
	if err := p.SetNetworkJitter(0.4); err != nil {
		t.Fatalf("SetNetworkJitter: %v", err)
	}
	seen := map[float64]bool{}
	for i := 0; i < 50; i++ {
		spec := p.MachineSpec(it)
		if spec.NetworkGbps > it.NetworkGbps || spec.NetworkGbps < it.NetworkGbps*0.6 {
			t.Fatalf("jittered rating %v outside [%v, %v]", spec.NetworkGbps, it.NetworkGbps*0.6, it.NetworkGbps)
		}
		seen[spec.NetworkGbps] = true
	}
	if len(seen) < 10 {
		t.Errorf("jitter produced only %d distinct ratings", len(seen))
	}
	// Without jitter the rating is exact.
	clean := NewProvisioner(SliceDegraded, 3).MachineSpec(it)
	if clean.NetworkGbps != it.NetworkGbps {
		t.Errorf("unjittered rating = %v", clean.NetworkGbps)
	}
}

func TestNetworkJitterValidation(t *testing.T) {
	p := NewProvisioner(SliceDegraded, 1)
	for _, bad := range []float64{-0.1, 1.0, 2.0} {
		if err := p.SetNetworkJitter(bad); err == nil {
			t.Errorf("jitter %v should be rejected", bad)
		}
	}
}

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestProvisionAllocs pins the allocations of building a world: a fresh
// engine and network, and a cluster provisioned on them. Routes are
// built on demand and the slice lottery's RNG only once it draws, so
// neither costs a world that does not use it.
func TestProvisionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, tc := range []struct {
		instance string
		count    int
		max      float64
	}{
		{"p2.16xlarge", 1, 137},
		{"p3.8xlarge", 2, 119},
	} {
		it, err := ByName(tc.instance)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			prov := NewProvisioner(SliceDegraded, 1)
			if _, err := prov.Provision(simnet.New(sim.NewEngine()), it, tc.count); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("provisioning %dx%s allocates %v times, want at most %v", tc.count, tc.instance, got, tc.max)
		}
	}
}
