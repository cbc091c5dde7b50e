package train

import (
	"testing"

	"stash/internal/pipeline"
)

// BenchmarkWorldBuild measures building one world up to its first event,
// which every simulated scenario pays: a fresh engine and network, the
// cluster provisioned on them, each machine's input pipeline, and the
// training run set up (collective group, iteration plan, workers and
// their loaders, tasks spawned). A 16-GPU real-data world and a
// two-machine synthetic one.
func BenchmarkWorldBuild(b *testing.B) {
	job := resnet18Job(b, 32)
	for _, tc := range []struct {
		c   cluster
		cfg Config
	}{
		{cluster{instance: "p2.16xlarge", count: 1, seed: 1}, Config{CacheMode: pipeline.CacheCold}},
		{cluster{instance: "p3.8xlarge", count: 2, seed: 1}, Config{Synthetic: true}},
	} {
		tc.cfg.Job, tc.cfg.Iterations, tc.cfg.Warmup = job, 12, 3
		b.Run(tc.c.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				eng, net, cfg := tc.c.world(b, tc.cfg)
				if _, err := start(eng, net, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
