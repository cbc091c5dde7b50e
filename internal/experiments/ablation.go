package experiments

import (
	"fmt"
	"time"

	"stash/internal/cloud"
	"stash/internal/collective"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/report"
	"stash/internal/train"
	"stash/internal/workload"
)

// rawRun executes a single training scenario directly on the substrate
// (bypassing the profiler) so ablations can vary train.Config knobs the
// profiler fixes.
func rawRun(cfg Config, instance string, count int, job workload.Job, policy cloud.SlicePolicy, mutate func(*train.Config)) (*train.Result, error) {
	c := cfg.normalize()
	it, err := cloud.ByName(instance)
	if err != nil {
		return nil, err
	}
	return core.Simulate(c.context(), cloud.NewProvisioner(policy, c.Seed), it, count, func(w core.World) (*train.Result, error) {
		tc := train.Config{
			Job:            job,
			Topology:       w.Topology,
			Iterations:     c.Iterations,
			Warmup:         2,
			Synthetic:      true,
			DisableOverlap: !w.Topology.SupportsAsyncCollectives(),
		}
		if mutate != nil {
			mutate(&tc)
		}
		return train.Run(w.Engine, w.Net, tc)
	})
}

// AblateOverlap quantifies what communication/computation overlap buys on
// a whole NVLink crossbar: the design choice behind the simulator's
// additive cost model on PCIe paths (DESIGN.md §5.3).
func AblateOverlap(cfg Config) ([]*report.Table, error) {
	t := report.NewTable("EXT ablation: communication/computation overlap (p3.16xlarge, batch 32)",
		"model", "overlapped iter", "serialized iter", "overlap saves")
	names := []string{"resnet50", "vgg11"}
	// One cell per (model, overlap setting); rawRun builds a private
	// engine per cell, so all four simulate concurrently.
	results := make([]*train.Result, 2*len(names))
	err := cfg.forEach(len(results), func(i int) error {
		m, err := dnn.ByName(names[i/2])
		if err != nil {
			return err
		}
		job, err := newJob(m, 32)
		if err != nil {
			return err
		}
		disable := i%2 == 1
		results[i], err = rawRun(cfg, "p3.16xlarge", 1, job, cloud.SliceDegraded, func(tc *train.Config) {
			tc.DisableOverlap = disable
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		over, serial := results[2*ni], results[2*ni+1]
		saving := 100 * (serial.PerIteration - over.PerIteration).Seconds() / serial.PerIteration.Seconds()
		t.AddRow(name, report.Dur(over.PerIteration), report.Dur(serial.PerIteration),
			report.Pct(saving))
	}
	return []*report.Table{t}, nil
}

// AblateBucketSize sweeps DDP's gradient bucket size: small buckets pay
// per-call latency, huge buckets lose overlap and pipelining.
func AblateBucketSize(cfg Config) ([]*report.Table, error) {
	m, err := dnn.ResNet(152)
	if err != nil {
		return nil, err
	}
	job, err := newJob(m, 32)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("EXT ablation: gradient bucket size (resnet152, batch 32)",
		"bucketing", "buckets", "p3.16xlarge iter", "p3.8xlarge*2 iter")
	type bucketing struct {
		label string
		bytes float64 // 0 = per-layer
	}
	bucketings := []bucketing{
		{"per-layer", 0},
		{"5 MB", 5e6},
		{"25 MB (DDP default)", 25e6},
		{"100 MB", 100e6},
	}
	type row struct {
		buckets      int
		intra, inter *train.Result
	}
	rows := make([]row, len(bucketings))
	err = cfg.forEach(len(bucketings), func(i int) error {
		bk := bucketings[i]
		var buckets []collective.Bucket
		var err error
		//lint:allow floatcmp 0 is the per-layer-bucketing sentinel literal, not a computed value
		if bk.bytes == 0 {
			buckets = collective.PerLayerBuckets(m)
		} else {
			buckets, err = collective.SizedBuckets(m, bk.bytes)
			if err != nil {
				return err
			}
		}
		mutate := func(tc *train.Config) { tc.Buckets = buckets }
		rows[i].buckets = len(buckets)
		if rows[i].intra, err = rawRun(cfg, "p3.16xlarge", 1, job, cloud.SliceDegraded, mutate); err != nil {
			return err
		}
		rows[i].inter, err = rawRun(cfg, "p3.8xlarge", 2, job, cloud.SliceDegraded, mutate)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, bk := range bucketings {
		t.AddRow(bk.label, fmt.Sprintf("%d", rows[i].buckets),
			report.Dur(rows[i].intra.PerIteration), report.Dur(rows[i].inter.PerIteration))
	}
	return []*report.Table{t}, nil
}

// AblateCompression sweeps lossy gradient compression on the
// network-bound configuration: the remedy the communication-reduction
// literature (§III) proposes for exactly the stalls Stash measures.
func AblateCompression(cfg Config) ([]*report.Table, error) {
	m, err := dnn.VGG(11)
	if err != nil {
		return nil, err
	}
	job, err := newJob(m, 32)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("EXT ablation: gradient compression (vgg11, 2x p3.8xlarge, batch 32)",
		"compression", "iter time", "comm wait", "vs uncompressed")
	ratios := []float64{1, 0.5, 0.25, 0.1}
	results := make([]*train.Result, len(ratios))
	err = cfg.forEach(len(ratios), func(i int) error {
		var err error
		results[i], err = rawRun(cfg, "p3.8xlarge", 2, job, cloud.SliceDegraded, func(tc *train.Config) {
			tc.CompressionRatio = ratios[i]
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	base := results[0].PerIteration // ratio 1 = uncompressed baseline
	for i, ratio := range ratios {
		res := results[i]
		t.AddRow(fmt.Sprintf("%.0fx", 1/ratio), report.Dur(res.PerIteration),
			report.Dur(res.CommWaitMax/time.Duration(res.Iterations)),
			fmt.Sprintf("%.2fx", base.Seconds()/res.PerIteration.Seconds()))
	}
	return []*report.Table{t}, nil
}

// SliceLottery studies the p3.8xlarge crossbar lottery the paper calls
// "probabilistic in nature" (§V-B1): the interconnect stall a tenant
// should expect across many provisioning draws.
func SliceLottery(cfg Config) ([]*report.Table, error) {
	m, err := dnn.ResNet(18)
	if err != nil {
		return nil, err
	}
	job, err := newJob(m, 32)
	if err != nil {
		return nil, err
	}
	it, err := cloud.ByName("p3.8xlarge")
	if err != nil {
		return nil, err
	}
	const draws = 12
	pcts := make([]float64, draws)
	err = cfg.forEach(draws, func(d int) error {
		p := cfg.profiler(core.WithSlicePolicy(cloud.SliceLottery), core.WithSeed(cfg.normalize().Seed+int64(d)))
		s, err := p.InterconnectStall(job, it)
		if err != nil {
			return err
		}
		pcts[d] = s.Pct
		return nil
	})
	if err != nil {
		return nil, err
	}
	minPct, maxPct, sumPct := 1e9, 0.0, 0.0
	for _, pct := range pcts {
		sumPct += pct
		if pct < minPct {
			minPct = pct
		}
		if pct > maxPct {
			maxPct = pct
		}
	}
	t := report.NewTable("EXT: p3.8xlarge NVLink slice lottery (resnet18, batch 32)",
		"draws", "mean I/C stall", "best draw", "worst draw", "worst/best")
	t.AddRow(fmt.Sprintf("%d", draws), report.Pct(sumPct/draws),
		report.Pct(minPct), report.Pct(maxPct),
		fmt.Sprintf("%.1fx", maxPct/minPct))
	return []*report.Table{t}, nil
}

// MultiEpoch shows the paper's §I claim in motion: DRAM caching
// eliminates fetch stalls after the first epoch, while communication
// stalls recur every iteration forever.
func MultiEpoch(cfg Config) ([]*report.Table, error) {
	p := cfg.profiler()
	m, err := dnn.ResNet(18)
	if err != nil {
		return nil, err
	}
	job, err := newJob(m, 32)
	if err != nil {
		return nil, err
	}
	it, err := cloud.ByName("p3.16xlarge")
	if err != nil {
		return nil, err
	}
	// The two measurements overlap on the shared scenario cache, so run
	// them as a two-cell sweep.
	var est core.EpochEstimate
	var ic core.ICStall
	if err := cfg.forEach(2, func(i int) error {
		var err error
		if i == 0 {
			est, err = p.Epoch(job, it, 1)
		} else {
			ic, err = p.InterconnectStall(job, it)
		}
		return err
	}); err != nil {
		return nil, err
	}
	t := report.NewTable("EXT: stalls across epochs (resnet18, p3.16xlarge, batch 32)",
		"epoch", "per-iteration", "fetch component", "comm component")
	commPart := ic.Stall
	for epoch := 1; epoch <= 5; epoch++ {
		iter := est.WarmIteration
		fetch := time.Duration(0)
		if epoch == 1 {
			iter = est.ColdIteration
			fetch = est.ColdIteration - est.WarmIteration
		}
		t.AddRow(fmt.Sprintf("%d", epoch), report.Dur(iter), report.Dur(fetch), report.Dur(commPart))
	}
	return []*report.Table{t}, nil
}

// P4Preview extends the characterization to the P4 family the paper
// leaves out ("a dedicated offering not considered herein"). The A100s
// finish epochs faster, but because the per-bucket hook cost is fixed,
// the *relative* interconnect stall actually grows on the faster GPUs --
// and the premium price keeps P3 on the cost-effectiveness frontier for
// these models.
func P4Preview(cfg Config) ([]*report.Table, error) {
	p := cfg.profiler()
	t := report.NewTable("EXT: P4 (A100/NVSwitch) vs P3 preview",
		"model", "instance", "I/C stall %", "epoch time", "epoch cost")
	names := []string{"resnet50", "bert-large"}
	instances := []string{"p3.16xlarge", "p4d.24xlarge"}
	rows := make([][]string, len(names)*len(instances))
	err := cfg.forEach(len(rows), func(i int) error {
		name, instance := names[i/len(instances)], instances[i%len(instances)]
		m, err := dnn.ByName(name)
		if err != nil {
			return err
		}
		batch := 32
		if name == "bert-large" {
			batch = 4
		}
		job, err := newJob(m, batch)
		if err != nil {
			return err
		}
		it, err := cloud.ByName(instance)
		if err != nil {
			return err
		}
		ic, err := p.InterconnectStall(job, it)
		if err != nil {
			return err
		}
		est, err := p.Epoch(job, it, 1)
		if err != nil {
			return err
		}
		rows[i] = []string{m.Name, instance, report.Pct(ic.Pct), report.Dur(est.Time), report.Money(est.Cost)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}
