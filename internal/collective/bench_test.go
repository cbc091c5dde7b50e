package collective

import (
	"testing"
	"time"

	"stash/internal/hw"
	"stash/internal/sim"
	"stash/internal/simnet"
	"stash/internal/topo"
)

// benchRing measures a full ring all-reduce on an 8-GPU NVLink machine.
func benchRing(b *testing.B, bytes float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		net := simnet.New(e)
		top, err := topo.BuildCluster(net, []topo.MachineSpec{{
			GPU: hw.V100, NGPUs: 8,
			Interconnect:         topo.InterconnectNVLink,
			PCIe:                 hw.PCIeGen3x16,
			RootComplexBandwidth: 48 * hw.GB,
			NVLink:               hw.NVLink2,
		}})
		if err != nil {
			b.Fatal(err)
		}
		g, err := NewGroup(e, net, top, top.AllGPUs())
		if err != nil {
			b.Fatal(err)
		}
		var done time.Duration
		for rank := 0; rank < 8; rank++ {
			spawnAllReduce(e, g, rank, 0, bytes, &done)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingAllReduce1MB(b *testing.B)   { benchRing(b, 1e6) }
func BenchmarkRingAllReduce100MB(b *testing.B) { benchRing(b, 1e8) }
