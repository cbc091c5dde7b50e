package simnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"stash/internal/sim"
)

// TestFlowSetKeepsActivationOrder: plain flows of random sizes start one
// by one on a few shared links and finish out of order, beside two rings
// whose rounds end at the same instants: one alone on its links, which
// forwards its rounds from the end of round 0 by taking its members out
// from before the other's, and one that shares a link with a long flow
// and so stays in the flow set. At every microsecond the flow set holds
// the plain flows in the order they started and each ring's members in
// the order they re-armed, and every flow's index is its position.
func TestFlowSetKeepsActivationOrder(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	ring := func(capacity float64) *FlowGroup {
		routes := make([][]*Link, 4)
		for i := range routes {
			routes[i] = []*Link{n.NewLink("ring", capacity, time.Microsecond)}
		}
		return n.NewGroup(routes)
	}
	// The shared ring's member 0 gets half its link beside the long flow,
	// as fast as the lone ring's members.
	lone, shared := ring(1*gb), ring(2*gb)
	order := map[*Flow]int{n.StartFlowLatency(1*gb, shared.members[0].route, 0): -1}
	member := map[*Flow]int{}
	for _, g := range []*FlowGroup{lone, shared} {
		for i := range g.members {
			member[&g.members[i]] = i
		}
		g.Start(20e3, 12)
	}
	links := []*Link{n.NewLink("a", 1*gb, 0), n.NewLink("b", 2*gb, 0), n.NewLink("c", 3*gb, 0)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		e.Schedule(time.Duration(i)*7*time.Microsecond, func() {
			route := []*Link{links[rng.Intn(len(links))]}
			if l := links[rng.Intn(len(links))]; l != route[0] && rng.Intn(2) == 0 {
				route = append(route, l)
			}
			order[n.StartFlowLatency(float64(1+rng.Intn(200))*1e3, route, 0)] = i
		})
	}
	beside := 0 // instants with the lone ring forwarded and the shared one in the set
	for at := time.Duration(0); !shared.Completed() || !lone.Completed(); at += time.Microsecond {
		if err := e.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		var started []int
		members := map[*FlowGroup][]int{}
		for i, f := range n.flows {
			if f.index != i {
				t.Fatalf("at %v: flow at position %d has index %d", at, i, f.index)
			}
			if f.group == nil {
				started = append(started, order[f])
			} else {
				members[f.group] = append(members[f.group], member[f])
			}
		}
		if !slices.IsSorted(started) {
			t.Fatalf("at %v: the plain flows are in the flow set in start order %v", at, started)
		}
		for _, m := range members {
			if !slices.IsSorted(m) {
				t.Fatalf("at %v: a ring's members are in the flow set in member order %v", at, m)
			}
		}
		if lone.mode == forwarding && len(members[shared]) > 0 {
			beside++
		}
	}
	if beside == 0 {
		t.Error("the lone ring never ran forwarded beside the shared one")
	}
}

// TestStateEncodesRemainingBytes: the state encoding needs each flow's
// remaining bytes beside its rate and its settled and due offsets. Two
// flows of 1000.2 and 1000.7 bytes on a link of one byte per
// nanosecond are due at the same tick, so at 500 ns the two networks
// differ only in the remaining bytes; once a second flow halves their
// rates, the first flows finish a nanosecond apart.
func TestStateEncodesRemainingBytes(t *testing.T) {
	type world struct {
		e     *sim.Engine
		n     *Network
		first *Flow
		code  []uint64
	}
	var w [2]world
	for i, bytes := range []float64{1000.2, 1000.7} {
		e := sim.NewEngine()
		n := New(e)
		l := n.NewLink("l", 1*gb, 0)
		w[i] = world{e: e, n: n, first: n.StartFlow(bytes, []*Link{l})}
		if err := e.RunUntil(500 * time.Nanosecond); err != nil {
			t.Fatal(err)
		}
		code, ok := n.AppendState(nil)
		if !ok {
			t.Fatal("AppendState reported an uncovered state")
		}
		w[i].code = code
		n.StartFlow(1000, []*Link{l})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var diff []int
	for k := range w[0].code {
		if w[0].code[k] != w[1].code[k] {
			diff = append(diff, k)
		}
	}
	if len(w[0].code) != len(w[1].code) || len(diff) != 1 ||
		w[0].code[diff[0]] != math.Float64bits(1000.2) || w[1].code[diff[0]] != math.Float64bits(1000.7) {
		t.Fatalf("encodings %v and %v differ in positions %v, want only in the remaining bytes", w[0].code, w[1].code, diff)
	}
	if a, b := w[0].first.finished, w[1].first.finished; a != 1501*time.Nanosecond || b != 1502*time.Nanosecond {
		t.Errorf("the first flows finished at %v and %v, want 1.501µs and 1.502µs", a, b)
	}
}
