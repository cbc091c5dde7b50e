package core

import (
	"context"
	"fmt"
	"time"

	"stash/internal/cloud"
	"stash/internal/hw"
	"stash/internal/simnet"
	"stash/internal/workload"
)

// BandwidthProbe is the Fig-7 measurement: the host-to-device bandwidth
// each GPU achieves when every GPU on the machine transfers concurrently
// (the CUDA bandwidthTest methodology of §V-A1).
type BandwidthProbe struct {
	Instance string

	// PerGPU is the achieved bandwidth of each GPU, bytes/sec.
	PerGPU []float64
}

// MinPerGPU returns the slowest GPU's measured bandwidth.
func (b BandwidthProbe) MinPerGPU() float64 {
	if len(b.PerGPU) == 0 {
		return 0
	}
	m := b.PerGPU[0]
	for _, v := range b.PerGPU[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// PCIeBandwidthProbe measures per-GPU PCIe bandwidth on an instance with
// all GPUs transferring in parallel.
func (p *Profiler) PCIeBandwidthProbe(it cloud.InstanceType) (BandwidthProbe, error) {
	return Simulate(context.Background(), cloud.NewProvisioner(p.slicePolicy, p.seed), it, 1, func(w World) (BandwidthProbe, error) {
		m := w.Topology.Machines[0]
		const probeBytes = 1 * hw.GB
		flows := make([]*simnet.Flow, len(m.GPUs))
		for i, g := range m.GPUs {
			route, err := w.Topology.Route(m.Host, g)
			if err != nil {
				return BandwidthProbe{}, err
			}
			flows[i] = w.Net.StartFlow(probeBytes, route)
		}
		if err := w.Engine.Run(); err != nil {
			return BandwidthProbe{}, fmt.Errorf("stash: bandwidth probe: %w", err)
		}
		probe := BandwidthProbe{Instance: it.Name, PerGPU: make([]float64, len(flows))}
		for i, f := range flows {
			probe.PerGPU[i] = f.Throughput()
		}
		return probe, nil
	})
}

// MemoryUtilization returns the percentage of per-GPU device memory the
// job occupies on the instance (Fig 15), capped at 100.
func MemoryUtilization(job workload.Job, it cloud.InstanceType) float64 {
	pct := 100 * job.Model.TrainingMemoryBytes(job.BatchPerGPU) / it.GPUMemPerGPU()
	if pct > 100 {
		pct = 100
	}
	return pct
}

// String renders an ICStall compactly.
func (s ICStall) String() string {
	return fmt.Sprintf("I/C stall %.1f%% (1-GPU %v, all-GPU %v)", s.Pct, round(s.SingleGPU), round(s.AllGPU))
}

// String renders an NWStall compactly.
func (s NWStall) String() string {
	return fmt.Sprintf("N/W stall %.1f%% over %d nodes (1-node %v, %d-node %v)",
		s.Pct, s.Nodes, round(s.SingleInstance), s.Nodes, round(s.MultiInstance))
}

// String renders DataStalls compactly.
func (s DataStalls) String() string {
	return fmt.Sprintf("prep stall %.1f%%, fetch stall %.1f%% of training time", s.PrepPct, s.FetchPct)
}

// String renders an EpochEstimate compactly.
func (e EpochEstimate) String() string {
	return fmt.Sprintf("epoch on %dx %s: %v ($%.2f)", e.Nodes, e.Instance, round(e.Time), e.Cost)
}

// String renders the full report.
func (r *Report) String() string {
	s := fmt.Sprintf("%s on %s (batch %d):\n  %v\n  %v\n", r.Model, r.Instance, r.Batch, r.IC, r.Data)
	if r.NW != nil {
		s += fmt.Sprintf("  %v\n", *r.NW)
	}
	return s + fmt.Sprintf("  %v\n", r.Epoch)
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
