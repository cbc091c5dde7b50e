// Package cloud models the AWS side of the paper: the P-family GPU
// instance catalog with Table I's hardware specs and N. Virginia prices,
// a provisioner that turns instance types into simulated machines
// (including the probabilistic NVLink-crossbar slicing of p3.8xlarge,
// §V-B1), and on-demand cost accounting.
package cloud

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"stash/internal/hw"
	"stash/internal/simnet"
	"stash/internal/topo"
)

// InstanceType is one row of Table I plus the modeling parameters the
// simulator needs.
type InstanceType struct {
	Name   string
	Family string // "P2", "P3" or "P4"

	GPU   hw.GPUSpec
	NGPUs int
	VCPUs int

	// InterconnectDesc is the human-readable Table I column.
	InterconnectDesc string

	// GPUMemoryGB and MainMemoryGB are the Table I capacity columns.
	GPUMemoryGB  float64
	MainMemoryGB float64

	// NetworkGbps is the headline network rating; NetworkDesc keeps
	// Table I's qualifier ("up to 10").
	NetworkGbps float64
	NetworkDesc string

	// PricePerHour is the N. Virginia on-demand price in USD.
	PricePerHour float64

	// Interconnect is the topology class used when provisioning.
	Interconnect topo.Interconnect

	// RootComplexBandwidth is the machine's aggregate PCIe budget. AWS
	// does not scale it with GPU count within a family, which is what
	// starves p2.16xlarge (Fig 7).
	RootComplexBandwidth float64

	// Storage is the volume training data is read from.
	Storage hw.StorageSpec

	// DegradedSliceProb is the probability that provisioning this type
	// yields a sliced (partially PCIe-routed) NVLink allocation instead
	// of a whole crossbar. Non-zero only for p3.8xlarge, whose GPUs may
	// straddle two tenants' half-crossbars.
	DegradedSliceProb float64
}

// GPUMemPerGPU returns the device memory available to each GPU, in bytes.
func (it InstanceType) GPUMemPerGPU() float64 {
	return it.GPUMemoryGB * 1e9 / float64(it.NGPUs)
}

// CPU returns the host CPU spec.
func (it InstanceType) CPU() hw.CPUSpec { return hw.Xeon(it.VCPUs) }

// Cost returns the on-demand cost of running n instances of this type for
// the given duration, prorated per second.
func (it InstanceType) Cost(d time.Duration, n int) float64 {
	return it.PricePerHour * d.Hours() * float64(n)
}

// Catalog returns Table I: the AWS P-family GPU instances.
func Catalog() []InstanceType {
	return []InstanceType{
		{
			Name: "p4d.24xlarge", Family: "P4",
			GPU: hw.A100, NGPUs: 8, VCPUs: 96,
			InterconnectDesc: "NVSwitch",
			GPUMemoryGB:      320, MainMemoryGB: 1152,
			NetworkGbps: 400, NetworkDesc: "400",
			PricePerHour:         32.7726,
			Interconnect:         topo.InterconnectNVSwitch,
			RootComplexBandwidth: 64 * hw.GB,
			Storage:              hw.LocalNVMe,
		},
		{
			Name: "p3.2xlarge", Family: "P3",
			GPU: hw.V100, NGPUs: 1, VCPUs: 8,
			InterconnectDesc: "PCIe",
			GPUMemoryGB:      16, MainMemoryGB: 61,
			NetworkGbps: 10, NetworkDesc: "up to 10",
			PricePerHour:         3.06,
			Interconnect:         topo.InterconnectPCIe,
			RootComplexBandwidth: 12 * hw.GB,
			Storage:              hw.GP2SSD,
		},
		{
			Name: "p3.8xlarge", Family: "P3",
			GPU: hw.V100, NGPUs: 4, VCPUs: 32,
			InterconnectDesc: "PCIe + NVLink",
			GPUMemoryGB:      64, MainMemoryGB: 244,
			NetworkGbps: 10, NetworkDesc: "10",
			PricePerHour:         12.24,
			Interconnect:         topo.InterconnectNVLink,
			RootComplexBandwidth: 48 * hw.GB,
			Storage:              hw.GP2SSD,
			DegradedSliceProb:    0.75,
		},
		{
			Name: "p3.16xlarge", Family: "P3",
			GPU: hw.V100, NGPUs: 8, VCPUs: 64,
			InterconnectDesc: "PCIe + NVLink",
			GPUMemoryGB:      128, MainMemoryGB: 488,
			NetworkGbps: 25, NetworkDesc: "25",
			PricePerHour:         24.48,
			Interconnect:         topo.InterconnectNVLink,
			RootComplexBandwidth: 48 * hw.GB,
			Storage:              hw.GP2SSD,
		},
		{
			Name: "p3.24xlarge", Family: "P3",
			GPU: hw.V100x32, NGPUs: 8, VCPUs: 96,
			InterconnectDesc: "PCIe + NVLink",
			GPUMemoryGB:      256, MainMemoryGB: 768,
			NetworkGbps: 100, NetworkDesc: "100",
			PricePerHour:         31.218,
			Interconnect:         topo.InterconnectNVLink,
			RootComplexBandwidth: 48 * hw.GB,
			Storage:              hw.LocalNVMe,
		},
		{
			Name: "p2.xlarge", Family: "P2",
			GPU: hw.K80, NGPUs: 1, VCPUs: 4,
			InterconnectDesc: "PCIe",
			GPUMemoryGB:      12, MainMemoryGB: 61,
			NetworkGbps: 10, NetworkDesc: "< 10",
			PricePerHour:         0.90,
			Interconnect:         topo.InterconnectPCIe,
			RootComplexBandwidth: 12 * hw.GB,
			Storage:              hw.GP2SSD,
		},
		{
			Name: "p2.8xlarge", Family: "P2",
			GPU: hw.K80, NGPUs: 8, VCPUs: 32,
			InterconnectDesc: "PCIe",
			GPUMemoryGB:      96, MainMemoryGB: 488,
			NetworkGbps: 10, NetworkDesc: "10",
			PricePerHour: 7.20,
			Interconnect: topo.InterconnectPCIe,
			// AWS keeps the same per-host PCIe fabric budget as the
			// 1-GPU xlarge while packing 8 GPUs onto it.
			RootComplexBandwidth: 12 * hw.GB,
			Storage:              hw.GP2SSD,
		},
		{
			Name: "p2.16xlarge", Family: "P2",
			GPU: hw.K80, NGPUs: 16, VCPUs: 64,
			InterconnectDesc: "PCIe",
			GPUMemoryGB:      192, MainMemoryGB: 732,
			NetworkGbps: 25, NetworkDesc: "25",
			PricePerHour: 14.40,
			Interconnect: topo.InterconnectPCIe,
			// The 16xlarge shares the same physical PCIe fabric budget as
			// smaller P2 hosts but hangs 16 GPUs off it; oversubscribed
			// switch arbitration leaves each GPU a sliver (Fig 7).
			RootComplexBandwidth: 6 * hw.GB,
			Storage:              hw.GP2SSD,
		},
	}
}

// catalog is Catalog, built on first use for ByName's lookups.
var catalog = sync.OnceValue(Catalog)

// ByName returns the catalog entry with the given name.
func ByName(name string) (InstanceType, error) {
	for _, it := range catalog() {
		if it.Name == name {
			return it, nil
		}
	}
	return InstanceType{}, fmt.Errorf("cloud: unknown instance type %q", name)
}

// SlicePolicy controls how the provisioner resolves the p3.8xlarge
// crossbar lottery.
type SlicePolicy int

// Slice policies.
const (
	// SliceLottery draws from DegradedSliceProb with the provisioner's
	// RNG -- what a real tenant experiences.
	SliceLottery SlicePolicy = iota + 1

	// SliceDegraded forces the sliced allocation (the common case the
	// paper observed and the default for reproducible experiments).
	SliceDegraded

	// SliceClean forces a whole-crossbar allocation (the lucky tenant).
	SliceClean
)

// Provisioner turns instance types into simulated machines.
type Provisioner struct {
	seed          int64
	rng           *rand.Rand // seeded at the first draw; most provisioners never draw
	policy        SlicePolicy
	networkJitter float64
}

// NewProvisioner returns a provisioner with the given slicing policy.
// The seed drives the slice lottery and network jitter draws.
func NewProvisioner(policy SlicePolicy, seed int64) *Provisioner {
	return &Provisioner{seed: seed, policy: policy}
}

// draw returns the next number in [0, 1) of the provisioner's RNG.
func (p *Provisioner) draw() float64 {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	return p.rng.Float64()
}

// SetNetworkJitter makes each provisioned machine draw its network
// rating from [1-frac, 1] x the headline Gbps, modeling the temporal and
// tenant-dependent VPC QoS variance the paper calls "hard to
// definitively characterize" (SI, SIII). frac must be in [0, 1).
func (p *Provisioner) SetNetworkJitter(frac float64) error {
	if frac < 0 || frac >= 1 {
		return fmt.Errorf("cloud: network jitter %v outside [0, 1)", frac)
	}
	p.networkJitter = frac
	return nil
}

// MachineSpec resolves an instance type into a concrete machine spec,
// rolling the crossbar lottery if applicable.
func (p *Provisioner) MachineSpec(it InstanceType) topo.MachineSpec {
	ic := it.Interconnect
	if ic == topo.InterconnectNVLink && it.DegradedSliceProb > 0 {
		switch p.policy {
		case SliceDegraded:
			ic = topo.InterconnectNVLinkDegraded
		case SliceClean:
			// keep the full crossbar
		default:
			if p.draw() < it.DegradedSliceProb {
				ic = topo.InterconnectNVLinkDegraded
			}
		}
	}
	gbps := it.NetworkGbps
	if p.networkJitter > 0 {
		gbps *= 1 - p.draw()*p.networkJitter
	}
	return topo.MachineSpec{
		GPU:                  it.GPU,
		NGPUs:                it.NGPUs,
		Interconnect:         ic,
		PCIe:                 hw.PCIeGen3x16,
		RootComplexBandwidth: it.RootComplexBandwidth,
		NVLink:               hw.NVLink2,
		NetworkGbps:          gbps,
	}
}

// Provision builds a cluster of count instances of the given type on the
// network. Each instance rolls its own lottery.
func (p *Provisioner) Provision(net *simnet.Network, it InstanceType, count int) (*topo.Topology, error) {
	if count < 1 {
		return nil, fmt.Errorf("cloud: instance count %d < 1", count)
	}
	specs := make([]topo.MachineSpec, count)
	for i := range specs {
		specs[i] = p.MachineSpec(it)
	}
	t, err := topo.BuildCluster(net, specs)
	if err != nil {
		return nil, fmt.Errorf("provision %s x%d: %w", it.Name, count, err)
	}
	return t, nil
}
