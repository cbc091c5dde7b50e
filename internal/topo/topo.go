// Package topo builds the device-and-link topologies of simulated cloud
// machines and clusters: PCIe trees (P2), NVLink crossbars whole or
// degraded (P3), NVSwitch fabrics (P4), and VPC networks tying machines
// together. It provides routing between any two devices, expressed as a
// sequence of simnet links, so that collective operations see the same
// contention the paper measures.
package topo

import (
	"fmt"
	"time"

	"stash/internal/hw"
	"stash/internal/simnet"
)

// Kind classifies a device node in the topology.
type Kind int

// Device kinds.
const (
	KindGPU Kind = iota + 1
	KindHost
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindGPU:
		return "GPU"
	case KindHost:
		return "Host"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device is a node in the topology: a GPU or a host (CPU+DRAM+NIC).
type Device struct {
	Kind  Kind
	Name  string
	GPU   hw.GPUSpec // valid when Kind == KindGPU
	Node  int        // machine index within the cluster
	Index int        // local index within the machine (GPU local rank)
}

// Interconnect selects how a machine's GPUs talk to each other.
type Interconnect int

// Interconnect kinds for machine construction.
const (
	// InterconnectPCIe routes every GPU pair through the shared PCIe
	// root complex (P2 instances).
	InterconnectPCIe Interconnect = iota + 1

	// InterconnectNVLink gives every GPU pair a dedicated NVLink
	// connection (a full crossbar slice, as on p3.16xlarge).
	InterconnectNVLink

	// InterconnectNVLinkDegraded models the p3.8xlarge slicing anomaly
	// (§V-B1): the instance's GPUs straddle two half-crossbars, so only
	// same-half pairs have NVLink; cross-half pairs fall back to PCIe.
	InterconnectNVLinkDegraded

	// InterconnectNVSwitch connects all pairs through an NVSwitch fabric
	// (P4 instances).
	InterconnectNVSwitch
)

// String returns the interconnect name.
func (i Interconnect) String() string {
	switch i {
	case InterconnectPCIe:
		return "PCIe"
	case InterconnectNVLink:
		return "NVLink"
	case InterconnectNVLinkDegraded:
		return "NVLink(degraded)"
	case InterconnectNVSwitch:
		return "NVSwitch"
	default:
		return fmt.Sprintf("Interconnect(%d)", int(i))
	}
}

// MachineSpec describes one machine to build.
type MachineSpec struct {
	GPU          hw.GPUSpec
	NGPUs        int
	Interconnect Interconnect

	// PCIe is the per-GPU PCIe attachment (used for host transfers and,
	// on PCIe-interconnect machines, for GPU peer traffic).
	PCIe hw.LinkSpec

	// RootComplexBandwidth is the aggregate PCIe root-complex budget all
	// of the machine's device traffic shares, in bytes/s. On
	// p2.16xlarge this budget is not scaled up with the GPU count, which
	// produces the Fig-7 per-GPU bandwidth collapse.
	RootComplexBandwidth float64

	// NVLink is the GPU-pair attachment for NVLink interconnects.
	NVLink hw.LinkSpec

	// NetworkGbps is the instance's headline network rating.
	NetworkGbps float64
}

// Machine is a built machine: one host and its GPUs.
type Machine struct {
	Spec MachineSpec
	Node int
	Host *Device
	GPUs []*Device

	rootBus *simnet.Link // shared PCIe root complex
	gpuUp   []*simnet.Link
	gpuDown []*simnet.Link
	nicOut  *simnet.Link
	nicIn   *simnet.Link

	// nvlinks[i*NGPUs+j] is the dedicated link from GPU i to GPU j, nil
	// where the pair talks over PCIe (and the table nil on PCIe machines).
	nvlinks []*simnet.Link
}

// Topology is a built cluster: machines joined by a network fabric.
type Topology struct {
	Net      *simnet.Network
	Machines []*Machine
}

// BuildCluster constructs machines and the VPC fabric between them on the
// given simnet network. Machines are indexed by position.
func BuildCluster(net *simnet.Network, specs []MachineSpec) (*Topology, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("topo: no machines")
	}
	t := &Topology{Net: net}
	for node, spec := range specs {
		m, err := buildMachine(net, node, spec)
		if err != nil {
			return nil, fmt.Errorf("machine %d: %w", node, err)
		}
		t.Machines = append(t.Machines, m)
	}
	// Every machine's own links come first, then each machine's pair
	// links: a fixed creation order fixes every link's id.
	for _, m := range t.Machines {
		m.buildNVLinks(net)
	}
	return t, nil
}

func buildMachine(net *simnet.Network, node int, spec MachineSpec) (*Machine, error) {
	if spec.NGPUs < 1 {
		return nil, fmt.Errorf("NGPUs %d < 1", spec.NGPUs)
	}
	if spec.RootComplexBandwidth <= 0 {
		return nil, fmt.Errorf("RootComplexBandwidth %v <= 0", spec.RootComplexBandwidth)
	}
	switch spec.Interconnect {
	case InterconnectPCIe, InterconnectNVLink, InterconnectNVLinkDegraded, InterconnectNVSwitch:
	default:
		return nil, fmt.Errorf("unknown interconnect %v", spec.Interconnect)
	}
	if spec.Interconnect == InterconnectNVLinkDegraded && spec.NGPUs < 2 {
		return nil, fmt.Errorf("degraded NVLink needs >= 2 GPUs")
	}
	m := &Machine{
		Spec: spec,
		Node: node,
		Host: &Device{Kind: KindHost, Name: fmt.Sprintf("node%d/host", node), Node: node},
	}
	m.rootBus = net.NewLink(fmt.Sprintf("node%d/rootcomplex", node), spec.RootComplexBandwidth, spec.PCIe.Latency)
	for i := 0; i < spec.NGPUs; i++ {
		m.GPUs = append(m.GPUs, &Device{
			Kind:  KindGPU,
			Name:  fmt.Sprintf("node%d/gpu%d", node, i),
			GPU:   spec.GPU,
			Node:  node,
			Index: i,
		})
		m.gpuUp = append(m.gpuUp, net.NewLink(fmt.Sprintf("node%d/gpu%d/pcie-up", node, i), spec.PCIe.Bandwidth, spec.PCIe.Latency))
		m.gpuDown = append(m.gpuDown, net.NewLink(fmt.Sprintf("node%d/gpu%d/pcie-down", node, i), spec.PCIe.Bandwidth, spec.PCIe.Latency))
	}
	if spec.NetworkGbps > 0 {
		nl := hw.NetworkLink(spec.NetworkGbps)
		m.nicOut = net.NewLink(fmt.Sprintf("node%d/nic-out", node), nl.Bandwidth, nl.Latency)
		m.nicIn = net.NewLink(fmt.Sprintf("node%d/nic-in", node), nl.Bandwidth, nl.Latency)
	}
	return m, nil
}

// pcieRoute is the staged path between two GPUs (or host and GPU) through
// the shared root complex.
func (m *Machine) pcieRoute(from, to int) []*simnet.Link {
	switch {
	case from >= 0 && to >= 0:
		return []*simnet.Link{m.gpuUp[from], m.rootBus, m.gpuDown[to]}
	case from < 0: // host -> GPU
		return []*simnet.Link{m.rootBus, m.gpuDown[to]}
	default: // GPU -> host
		return []*simnet.Link{m.gpuUp[from], m.rootBus}
	}
}

// sameNVLinkHalf reports whether two local GPU indices live on the same
// half-crossbar under the degraded 8xlarge slicing.
func sameNVLinkHalf(i, j, n int) bool {
	half := (n + 1) / 2
	return (i < half) == (j < half)
}

// buildNVLinks creates the dedicated link of every ordered GPU pair that
// NVLink or NVSwitch connects, in (from, to) order: every pair on a
// whole crossbar or an NVSwitch, the same-half pairs on a degraded one.
// NVLink is full-duplex and the crossbar gives every pair dedicated
// bandwidth, so each direction gets its own link.
func (m *Machine) buildNVLinks(net *simnet.Network) {
	spec := m.Spec.NVLink
	switch m.Spec.Interconnect {
	case InterconnectPCIe:
		return
	case InterconnectNVSwitch:
		spec = hw.NVSwitchLink
	}
	n := m.Spec.NGPUs
	m.nvlinks = make([]*simnet.Link, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || m.Spec.Interconnect == InterconnectNVLinkDegraded && !sameNVLinkHalf(i, j, n) {
				continue
			}
			name := fmt.Sprintf("node%d/nvlink-%d-%d", m.Node, i, j)
			m.nvlinks[i*n+j] = net.NewLink(name, spec.Bandwidth, spec.Latency)
		}
	}
}

// Route returns the link path from one device to another, or an error if
// no route exists (e.g. machines without network links). Each call
// builds the path afresh from the devices' machines:
//
//   - host and GPU of one machine: PCIe through the root complex;
//   - two GPUs of one machine: their NVLink where they have one, else
//     PCIe through the root complex;
//   - devices of two machines: out of the first over its PCIe and NIC,
//     into the second over its NIC and PCIe, when both have a NIC.
func (t *Topology) Route(from, to *Device) ([]*simnet.Link, error) {
	if from == to {
		return nil, fmt.Errorf("topo: route from %s to itself", from.Name)
	}
	if !t.owns(from) || !t.owns(to) {
		return nil, fmt.Errorf("topo: no route %s -> %s", from.Name, to.Name)
	}
	a, b := t.Machines[from.Node], t.Machines[to.Node]
	i, j := -1, -1 // GPU indices, -1 for a host
	if from.Kind == KindGPU {
		i = from.Index
	}
	if to.Kind == KindGPU {
		j = to.Index
	}
	if a == b {
		if i >= 0 && j >= 0 && a.nvlinks != nil {
			if l := a.nvlinks[i*a.Spec.NGPUs+j]; l != nil {
				return []*simnet.Link{l}, nil
			}
		}
		return a.pcieRoute(i, j), nil
	}
	if a.nicOut == nil || b.nicIn == nil {
		return nil, fmt.Errorf("topo: no route %s -> %s", from.Name, to.Name)
	}
	route := make([]*simnet.Link, 0, 6)
	if i >= 0 {
		route = append(route, a.gpuUp[i], a.rootBus)
	}
	route = append(route, a.nicOut, b.nicIn)
	if j >= 0 {
		route = append(route, b.rootBus, b.gpuDown[j])
	}
	return route, nil
}

// owns reports whether d is one of the topology's devices.
func (t *Topology) owns(d *Device) bool {
	if d.Node < 0 || d.Node >= len(t.Machines) {
		return false
	}
	m := t.Machines[d.Node]
	if d.Kind == KindHost {
		return m.Host == d
	}
	return d.Index >= 0 && d.Index < len(m.GPUs) && m.GPUs[d.Index] == d
}

// AllGPUs returns every GPU in the cluster in (node, index) order; the
// position in the slice is the GPU's global rank.
func (t *Topology) AllGPUs() []*Device {
	var gpus []*Device
	for _, m := range t.Machines {
		gpus = append(gpus, m.GPUs...)
	}
	return gpus
}

// NumGPUs returns the total GPU count across the cluster.
func (t *Topology) NumGPUs() int {
	n := 0
	for _, m := range t.Machines {
		n += m.Spec.NGPUs
	}
	return n
}

// Machine returns the machine a device belongs to.
func (t *Topology) Machine(d *Device) *Machine { return t.Machines[d.Node] }

// SupportsAsyncCollectives reports whether gradient transfers on this
// cluster can overlap with GPU compute. True only for a single machine
// whose GPU pairs are all directly NVLink/NVSwitch connected: PCIe peer
// traffic (P2, the degraded p3.8xlarge slice) and any network path stage
// through host memory with synchronous copies that block the compute
// stream, which is why the paper's per-layer cost model is additive
// (§VI-A2).
func (t *Topology) SupportsAsyncCollectives() bool {
	if len(t.Machines) != 1 {
		return false
	}
	switch t.Machines[0].Spec.Interconnect {
	case InterconnectNVLink, InterconnectNVSwitch:
		return true
	default:
		return false
	}
}

// RouteLatency returns the propagation latency of the path between two
// devices, or 0 when no route exists.
func (t *Topology) RouteLatency(from, to *Device) time.Duration {
	r, err := t.Route(from, to)
	if err != nil {
		return 0
	}
	return simnet.RouteLatency(r)
}
