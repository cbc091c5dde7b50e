package collective

import (
	"testing"

	"stash/internal/cloud"
	"stash/internal/sim"
	"stash/internal/simnet"
)

// BenchmarkRingAllReduce measures one ring all-reduce of a 25 MB DDP
// bucket on a warm group, across the fabrics the suite exercises. The
// fluid model's cost depends on ranks and contention, not on bytes.
func BenchmarkRingAllReduce(b *testing.B) {
	fabrics := []struct {
		name     string
		instance string
		nodes    int
	}{
		{"pcie16", "p2.16xlarge", 1},  // 16 ranks on one PCIe root complex
		{"nvlink8", "p3.16xlarge", 1}, // 8 ranks over the NVLink crossbar
		{"vpc2x4", "p3.8xlarge", 2},   // 8 ranks, two of the hops over the VPC
	}
	for _, fab := range fabrics {
		b.Run(fab.name, func(b *testing.B) {
			it, err := cloud.ByName(fab.instance)
			if err != nil {
				b.Fatal(err)
			}
			e := sim.NewEngine()
			net := simnet.New(e)
			top, err := cloud.NewProvisioner(cloud.SliceClean, 1).Provision(net, it, fab.nodes)
			if err != nil {
				b.Fatal(err)
			}
			g, err := NewGroup(e, net, top, top.AllGPUs())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for rank := 0; rank < g.WorldSize(); rank++ {
					g.AllReduceAsync(rank, 25e6)
				}
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
