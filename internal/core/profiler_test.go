package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"stash/internal/cloud"
	"stash/internal/dnn"
	"stash/internal/hw"
	"stash/internal/workload"
)

func job(t *testing.T, m *dnn.Model, batch int) workload.Job {
	t.Helper()
	j, err := workload.NewJob(m, batch)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func resnet18(t *testing.T) *dnn.Model {
	t.Helper()
	m, err := dnn.ResNet(18)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func vgg11(t *testing.T) *dnn.Model {
	t.Helper()
	m, err := dnn.VGG(11)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func instance(t *testing.T, name string) cloud.InstanceType {
	t.Helper()
	it, err := cloud.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func fastProfiler(opts ...Option) *Profiler {
	return New(append([]Option{WithIterations(6)}, opts...)...)
}

func TestInterconnectStallPositiveOnMultiGPU(t *testing.T) {
	p := fastProfiler()
	s, err := p.InterconnectStall(job(t, resnet18(t), 32), instance(t, "p3.16xlarge"))
	if err != nil {
		t.Fatalf("InterconnectStall: %v", err)
	}
	if s.Stall <= 0 || s.Pct <= 0 {
		t.Errorf("I/C stall = %v (%.2f%%), want positive", s.Stall, s.Pct)
	}
	if s.AllGPU <= s.SingleGPU {
		t.Errorf("all-GPU time %v not above single-GPU %v", s.AllGPU, s.SingleGPU)
	}
}

func TestP2ContentionOrdering(t *testing.T) {
	// Fig 5a: p2.16xlarge has the worst interconnect stalls.
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	s8, err := p.InterconnectStall(j, instance(t, "p2.8xlarge"))
	if err != nil {
		t.Fatalf("8xlarge: %v", err)
	}
	s16, err := p.InterconnectStall(j, instance(t, "p2.16xlarge"))
	if err != nil {
		t.Fatalf("16xlarge: %v", err)
	}
	if s16.Pct <= s8.Pct {
		t.Errorf("p2.16xlarge stall %.1f%% not above p2.8xlarge %.1f%%", s16.Pct, s8.Pct)
	}
	if s16.Pct < 2*s8.Pct {
		t.Errorf("p2.16xlarge stall %.1f%% not dramatically above 8xlarge %.1f%%", s16.Pct, s8.Pct)
	}
}

func TestP3SlicingAnomaly(t *testing.T) {
	// §V-B1: the degraded p3.8xlarge has higher I/C stalls than the
	// p3.16xlarge despite having half the GPUs; a clean 8xlarge does not.
	j := job(t, resnet18(t), 32)
	p := fastProfiler()
	s16, err := p.InterconnectStall(j, instance(t, "p3.16xlarge"))
	if err != nil {
		t.Fatalf("16xlarge: %v", err)
	}
	s8deg, err := p.InterconnectStall(j, instance(t, "p3.8xlarge"))
	if err != nil {
		t.Fatalf("8xlarge degraded: %v", err)
	}
	s8clean, err := fastProfiler(WithSlicePolicy(cloud.SliceClean)).InterconnectStall(j, instance(t, "p3.8xlarge"))
	if err != nil {
		t.Fatalf("8xlarge clean: %v", err)
	}
	if s8deg.Pct <= s16.Pct {
		t.Errorf("degraded 8xlarge stall %.1f%% not above 16xlarge %.1f%%", s8deg.Pct, s16.Pct)
	}
	if s8clean.Pct >= s8deg.Pct {
		t.Errorf("clean 8xlarge stall %.1f%% not below degraded %.1f%%", s8clean.Pct, s8deg.Pct)
	}
}

func TestP3StallsLowerThanP2(t *testing.T) {
	// §V-B1: NVLink stalls are lower than PCIe stalls.
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	p2, err := p.InterconnectStall(j, instance(t, "p2.8xlarge"))
	if err != nil {
		t.Fatal(err)
	}
	p3, err := p.InterconnectStall(j, instance(t, "p3.16xlarge"))
	if err != nil {
		t.Fatal(err)
	}
	if p3.Pct >= p2.Pct {
		t.Errorf("P3 stall %.1f%% not below P2 %.1f%%", p3.Pct, p2.Pct)
	}
}

func TestNetworkStallLarge(t *testing.T) {
	// Fig 13: splitting a p3.8xlarge's world across two network-connected
	// instances produces triple-digit network stall percentages.
	p := fastProfiler()
	s, err := p.NetworkStall(job(t, resnet18(t), 32), instance(t, "p3.8xlarge"), 2)
	if err != nil {
		t.Fatalf("NetworkStall: %v", err)
	}
	if s.Pct < 50 {
		t.Errorf("network stall = %.1f%%, expected large (paper: up to 500%%)", s.Pct)
	}
	if s.MultiInstance <= s.SingleInstance {
		t.Error("multi-instance run not slower")
	}
}

func TestNetworkStallValidation(t *testing.T) {
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	if _, err := p.NetworkStall(j, instance(t, "p3.8xlarge"), 1); err == nil {
		t.Error("nodes=1 should fail")
	}
	if _, err := p.NetworkStall(j, instance(t, "p3.8xlarge"), 3); err == nil {
		t.Error("non-divisible split should fail")
	}
}

func TestVGGvsResNetStallContrast(t *testing.T) {
	// §VI-A: VGG (few layers, many gradients) has lower I/C stall but
	// much higher N/W stall than ResNet (many layers, few gradients).
	p := fastProfiler()
	it16 := instance(t, "p3.16xlarge")
	it8 := instance(t, "p3.8xlarge")

	resIC, err := p.InterconnectStall(job(t, resnet18(t), 32), it16)
	if err != nil {
		t.Fatal(err)
	}
	vggIC, err := p.InterconnectStall(job(t, vgg11(t), 32), it16)
	if err != nil {
		t.Fatal(err)
	}
	if vggIC.Stall >= resIC.Stall {
		t.Errorf("VGG I/C stall time %v not below ResNet %v", vggIC.Stall, resIC.Stall)
	}

	resNW, err := p.NetworkStall(job(t, resnet18(t), 32), it8, 2)
	if err != nil {
		t.Fatal(err)
	}
	vggNW, err := p.NetworkStall(job(t, vgg11(t), 32), it8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vggNW.Stall <= resNW.Stall {
		t.Errorf("VGG N/W stall time %v not above ResNet %v", vggNW.Stall, resNW.Stall)
	}
}

func TestDataStalls(t *testing.T) {
	// Fig 8: CPU stalls negligible on AWS, disk stalls high on 16xlarge
	// (8 loader workers on one gp2 volume) and low on 8xlarge.
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	d16, err := p.DataStallAnalysis(j, instance(t, "p3.16xlarge"))
	if err != nil {
		t.Fatalf("16xlarge: %v", err)
	}
	if d16.PrepPct > 5 {
		t.Errorf("prep stall = %.1f%%, paper finds it negligible on AWS", d16.PrepPct)
	}
	if d16.FetchPct < 5 {
		t.Errorf("fetch stall = %.1f%% on 16xlarge, want substantial", d16.FetchPct)
	}
	d8, err := p.DataStallAnalysis(j, instance(t, "p3.8xlarge"))
	if err != nil {
		t.Fatalf("8xlarge: %v", err)
	}
	if d8.FetchPct >= d16.FetchPct {
		t.Errorf("8xlarge fetch stall %.1f%% not below 16xlarge %.1f%%", d8.FetchPct, d16.FetchPct)
	}
}

func TestEpochCostP2Ordering(t *testing.T) {
	// Fig 6: cost grows with P2 instance size; 16xlarge is least
	// cost-optimal, and 2x 8xlarge beats 1x 16xlarge on time.
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	eXL, err := p.Epoch(j, instance(t, "p2.xlarge"), 1)
	if err != nil {
		t.Fatal(err)
	}
	e8, err := p.Epoch(j, instance(t, "p2.8xlarge"), 1)
	if err != nil {
		t.Fatal(err)
	}
	e16, err := p.Epoch(j, instance(t, "p2.16xlarge"), 1)
	if err != nil {
		t.Fatal(err)
	}
	e8x2, err := p.Epoch(j, instance(t, "p2.8xlarge"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(eXL.Cost < e8.Cost && e8.Cost < e16.Cost) {
		t.Errorf("P2 epoch costs not increasing: xl=%.2f 8xl=%.2f 16xl=%.2f", eXL.Cost, e8.Cost, e16.Cost)
	}
	if e8x2.Time >= e16.Time {
		t.Errorf("2x 8xlarge epoch %v not faster than 16xlarge %v (§V-A2)", e8x2.Time, e16.Time)
	}
}

func TestEpochIterationsScaleWithWorldSize(t *testing.T) {
	p := fastProfiler()
	j := job(t, resnet18(t), 32)
	e1, err := p.Epoch(j, instance(t, "p3.2xlarge"), 1)
	if err != nil {
		t.Fatal(err)
	}
	e8, err := p.Epoch(j, instance(t, "p3.16xlarge"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Iterations != 8*e8.Iterations && e1.Iterations != 8*e8.Iterations+e1.Iterations%8 {
		// Allow drop_last rounding.
		ratio := float64(e1.Iterations) / float64(e8.Iterations)
		if ratio < 7.9 || ratio > 8.1 {
			t.Errorf("iteration ratio = %.2f, want ~8", ratio)
		}
	}
	if e8.Time >= e1.Time {
		t.Errorf("8-GPU epoch %v not faster than 1-GPU %v", e8.Time, e1.Time)
	}
}

func TestPCIeBandwidthProbe(t *testing.T) {
	// Fig 7: per-GPU bandwidth collapses on p2.16xlarge, below the
	// instance's network rating.
	p := fastProfiler()
	probe := func(name string) BandwidthProbe {
		b, err := p.PCIeBandwidthProbe(instance(t, name))
		if err != nil {
			t.Fatalf("probe %s: %v", name, err)
		}
		return b
	}
	xl, x8, x16 := probe("p2.xlarge"), probe("p2.8xlarge"), probe("p2.16xlarge")
	if len(x16.PerGPU) != 16 {
		t.Fatalf("16xlarge probe has %d GPUs", len(x16.PerGPU))
	}
	if !(xl.MinPerGPU() > x8.MinPerGPU() && x8.MinPerGPU() > x16.MinPerGPU()) {
		t.Errorf("per-GPU bandwidth not degrading: %.2g > %.2g > %.2g",
			xl.MinPerGPU(), x8.MinPerGPU(), x16.MinPerGPU())
	}
	network := instance(t, "p2.16xlarge").NetworkGbps * hw.GbpsBytes
	if x16.MinPerGPU() >= network {
		t.Errorf("16xlarge per-GPU PCIe %.2g not below network %.2g (§V-A1)", x16.MinPerGPU(), network)
	}
}

func TestMemoryUtilization(t *testing.T) {
	// Fig 15: ShuffleNet barely uses a V100's memory; utilization is
	// higher on the smaller K80.
	shuffle := job(t, dnn.ShuffleNetV2(), 32)
	p3 := MemoryUtilization(shuffle, instance(t, "p3.16xlarge"))
	p2 := MemoryUtilization(shuffle, instance(t, "p2.16xlarge"))
	if p3 >= 25 {
		t.Errorf("ShuffleNet V100 memory util = %.1f%%, want low", p3)
	}
	if p2 <= p3 {
		t.Errorf("K80 util %.1f%% not above V100 %.1f%%", p2, p3)
	}
	res := job(t, resnet18(t), 128)
	if u := MemoryUtilization(res, instance(t, "p3.16xlarge")); u <= p3 {
		t.Errorf("ResNet18 bs128 util %.1f%% not above ShuffleNet %.1f%%", u, p3)
	}
}

func TestOOMDetection(t *testing.T) {
	p := fastProfiler()
	bert := job(t, dnn.BERTLarge(), 16)
	_, err := p.InterconnectStall(bert, instance(t, "p3.16xlarge"))
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("expected OOMError, got %v", err)
	}
	if oom.Model != "bert-large" || oom.Batch != 16 {
		t.Errorf("OOM fields = %+v", oom)
	}
	if msg := oom.Error(); !strings.Contains(msg, "bert-large") {
		t.Errorf("OOM message = %q", msg)
	}
	// Batch 4 fits (the paper's setting).
	if _, err := p.InterconnectStall(job(t, dnn.BERTLarge(), 4), instance(t, "p3.16xlarge")); err != nil {
		t.Errorf("BERT batch 4 should fit: %v", err)
	}
}

func TestFullProfileReport(t *testing.T) {
	p := fastProfiler()
	r, err := p.Profile(job(t, resnet18(t), 32), instance(t, "p3.16xlarge"))
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if r.NW == nil {
		t.Fatal("NW stall missing for 8-GPU instance")
	}
	if r.Epoch.Cost <= 0 || r.Epoch.Time <= 0 {
		t.Errorf("epoch estimate empty: %+v", r.Epoch)
	}
	s := r.String()
	for _, want := range []string{"resnet18", "p3.16xlarge", "I/C stall", "N/W stall", "fetch stall", "epoch"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestProfileSingleGPUInstanceSkipsNW(t *testing.T) {
	p := fastProfiler()
	r, err := p.Profile(job(t, dnn.ShuffleNetV2(), 32), instance(t, "p2.xlarge"))
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if r.NW != nil {
		t.Error("single-GPU instance should have no NW measurement")
	}
	if r.IC.Pct > 1 {
		t.Errorf("single-GPU I/C stall = %.2f%%, want ~0", r.IC.Pct)
	}
}

func TestDeterminism(t *testing.T) {
	j := job(t, resnet18(t), 32)
	it := instance(t, "p3.16xlarge")
	a, err := fastProfiler().InterconnectStall(j, it)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastProfiler().InterconnectStall(j, it)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("profiling not deterministic: %+v vs %+v", a, b)
	}
}

// TestOnePeriodProfileByteIdentity pins the one-period contract at the
// API level (the audit family re-checks it end to end): profiles computed
// from one period and from every iteration are deeply equal, CommBusy
// included.
func TestOnePeriodProfileByteIdentity(t *testing.T) {
	jb := job(t, resnet18(t), 32)
	it := instance(t, "p3.16xlarge")
	period, err := fastProfiler(WithSeed(7)).Profile(jb, it)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fastProfiler(WithSeed(7), WithEveryIteration(true)).Profile(jb, it)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(period, full) {
		t.Errorf("one-period profile diverges from full run:\n got %+v\nwant %+v", period, full)
	}
}
