package simnet

import (
	"testing"
	"time"

	"stash/internal/sim"
)

// BenchmarkFlowLifecycle measures start-to-completion cost of sequential
// flows on one link.
func BenchmarkFlowLifecycle(b *testing.B) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("l", 1e9, time.Microsecond)
	done := 0
	var next func()
	next = func() {
		f := n.StartFlow(1e6, []*Link{l})
		e.Schedule(0, func() {
			_ = f
		})
		done++
		if done < b.N {
			e.Schedule(time.Millisecond, next)
		}
	}
	e.Schedule(0, next)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecompute16Way measures the max-min fair recomputation with a
// 16-flow contention set (the p2.16xlarge ring shape).
func BenchmarkRecompute16Way(b *testing.B) {
	e := sim.NewEngine()
	n := New(e)
	bus := n.NewLink("bus", 1e12, 0)
	var up, down []*Link
	for i := 0; i < 16; i++ {
		up = append(up, n.NewLink("up", 1e10, 0))
		down = append(down, n.NewLink("down", 1e10, 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			n.StartFlow(1e5, []*Link{up[j], bus, down[(j+1)%16]})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingBesideLoaders measures one all-reduce op of an 8-member
// ring on private links while four loaders stream disk reads and CPU
// prep on links the ring never uses: the shape of a real-data training
// step, where every loader flow that starts or finishes changes the flow
// set beside the ring. The ring's uplinks differ, so its members finish
// one by one and each round is several solves.
func BenchmarkRingBesideLoaders(b *testing.B) {
	e := sim.NewEngine()
	n := New(e)
	const p, loaders = 8, 4
	sw := n.NewLink("switch", 100e9, 0)
	routes := make([][]*Link, p)
	for i := range routes {
		routes[i] = []*Link{n.NewLink("up", float64(10+i)*1e9, 0), sw}
	}
	disk := n.NewLink("disk", 250e6, 500*time.Microsecond)
	cpu := n.NewLink("cpu", 32000, 0) // samples/sec
	g := n.NewGroup(routes)
	// Each loader reads a batch, preps it, and repeats until the op ends.
	var load func()
	load = func() {
		if g.Completed() {
			return
		}
		n.StartFlow(1e5, []*Link{disk}).Done().OnFire(func() {
			n.StartFlow(32, []*Link{cpu}).Done().OnFire(load)
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Start(1e7, 2*(p-1))
		for j := 0; j < loaders; j++ {
			load()
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingBesideUpload measures all-reduce ops of a 16-member ring
// whose members share a root link with one long host-to-GPU upload per
// GPU, the shape of a p2.16xlarge real-data step: a member and the upload
// into the same GPU split that GPU's downlink, so every member runs at one
// rate, every round ends in one piece, and the ring runs its rounds beside
// the uploads. Each iteration starts the uploads and runs four ops back
// to back; the uploads end together during the third.
func BenchmarkRingBesideUpload(b *testing.B) {
	e := sim.NewEngine()
	n := New(e)
	const p, ops = 16, 4
	root := n.NewLink("root", 1e12, time.Microsecond)
	var up, down []*Link
	for i := 0; i < p; i++ {
		up = append(up, n.NewLink("up", 12e9, time.Microsecond))
		down = append(down, n.NewLink("down", 12e9, time.Microsecond))
	}
	routes := make([][]*Link, p)
	for i := range routes {
		routes[i] = []*Link{up[i], root, down[(i+1)%p]}
	}
	g := n.NewGroup(routes)
	op := 0
	var next func()
	next = func() {
		if op++; op <= ops {
			g.Start(4e6, 2*(p-1))
			g.Done().OnFire(next)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range down {
			n.StartFlow(3e8, []*Link{root, d})
		}
		op = 0
		next()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n.forwarded)/float64(b.N), "forwarded/op")
}
