package experiments

import (
	"fmt"
	"math"
	"time"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/report"
	"stash/internal/train"
)

// NetworkVariance studies how the VPC's QoS variance (§I, §III) spreads
// multi-node training times: the same 2x p3.8xlarge VGG11 job is
// provisioned repeatedly with jittered network ratings, and the spread
// of epoch-scale iteration times shows why one-shot bandwidth probes
// (the Srifty discussion, §VI-B) mislead.
func NetworkVariance(cfg Config) ([]*report.Table, error) {
	m, err := dnn.VGG(11)
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
	c := cfg.normalize()

	run := func(seed int64, jitter float64) (time.Duration, error) {
		prov := cloud.NewProvisioner(cloud.SliceDegraded, seed)
		if err := prov.SetNetworkJitter(jitter); err != nil {
			return 0, err
		}
		res, err := core.Simulate(c.context(), prov, it, 2, func(w core.World) (*train.Result, error) {
			return train.Run(w.Engine, w.Net, train.Config{
				Job:            job,
				Topology:       w.Topology,
				Iterations:     c.Iterations,
				Warmup:         2,
				Synthetic:      true,
				DisableOverlap: true,
			})
		})
		if err != nil {
			return 0, err
		}
		return res.PerIteration, nil
	}

	t := report.NewTable("EXT: VPC network QoS variance (vgg11, 2x p3.8xlarge, batch 32)",
		"jitter", "draws", "min iter", "mean iter", "max iter", "spread")
	jitters := []float64{0, 0.2, 0.4}
	const draws = 10
	// Every (jitter, draw) pair provisions its own engine, so the whole
	// grid sweeps concurrently; aggregates are folded in order afterwards.
	iters := make([]time.Duration, len(jitters)*draws)
	if err := cfg.forEach(len(iters), func(i int) error {
		var err error
		iters[i], err = run(c.Seed+int64(i%draws), jitters[i/draws])
		return err
	}); err != nil {
		return nil, err
	}
	for ji, jitter := range jitters {
		minT, maxT := time.Duration(math.MaxInt64), time.Duration(0)
		var sum time.Duration
		for _, iter := range iters[ji*draws : (ji+1)*draws] {
			sum += iter
			if iter < minT {
				minT = iter
			}
			if iter > maxT {
				maxT = iter
			}
		}
		t.AddRow(
			fmt.Sprintf("%.0f%%", jitter*100),
			fmt.Sprintf("%d", draws),
			report.Dur(minT),
			report.Dur(sum/draws),
			report.Dur(maxT),
			fmt.Sprintf("%.2fx", maxT.Seconds()/minT.Seconds()),
		)
	}
	return []*report.Table{t}, nil
}
