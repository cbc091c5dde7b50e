package simnet

import (
	"testing"
	"time"

	"stash/internal/sim"
)

// TestRecycleReusesFlowStorage proves the opt-in free list: a recycled
// flow's storage backs the next StartFlow, with its done signal re-armed.
func TestRecycleReusesFlowStorage(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("l", 1*gb, 0)
	f1 := n.StartFlow(1e6, []*Link{l})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !f1.Completed() {
		t.Fatal("flow did not complete")
	}
	n.Recycle(f1)
	f2 := n.StartFlow(2e6, []*Link{l})
	if f2 != f1 {
		t.Error("StartFlow after Recycle minted fresh storage")
	}
	if f2.Completed() || f2.Done().Fired() {
		t.Error("recycled flow kept completed state")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !f2.Completed() || !f2.Done().Fired() {
		t.Error("recycled flow did not complete its second transfer")
	}
	if got := f2.Throughput(); !almostEqual(got, 1*gb, 1e-6) {
		t.Errorf("recycled flow throughput = %v, want %v", got, 1*gb)
	}
}

func TestRecycleIncompleteFlowPanics(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("l", 1*gb, 0)
	f := n.StartFlow(1e6, []*Link{l})
	defer func() {
		if recover() == nil {
			t.Error("Recycle of an in-flight flow did not panic")
		}
	}()
	n.Recycle(f)
}

// TestNetworkResetMatchesFreshBuild is the world-reuse guarantee the core
// pool depends on: after Engine.Reset + Network.Reset, transfers and flow
// groups over the surviving links behave exactly like ones on a brand-new
// network, and the link statistics and solver counters start from zero.
// A group in flight at Reset is dropped; a recycled one stays on the free
// list, and its replay memo, solved on faster links, must not leak into
// its reuse.
func TestNetworkResetMatchesFreshBuild(t *testing.T) {
	type outcome struct {
		a, b                   float64
		lone, shared           time.Duration
		filled, kept, replayed uint64
	}
	run := func(e *sim.Engine, n *Network, l *Link) outcome {
		// The first group runs alone, so its solves consult its memo;
		// then two flows and a second group share the link.
		var out outcome
		lone := n.StartGroup([][]*Link{{l}, {l}}, 1e6, 3)
		lone.Done().OnFire(func() { out.lone = e.Now() })
		var a, b *Flow
		e.Schedule(20*time.Millisecond, func() {
			a = n.StartFlow(3e6, []*Link{l})
			b = n.StartFlow(3e6, []*Link{l})
			shared := n.StartGroup([][]*Link{{l}, {l}}, 1e6, 3)
			shared.Done().OnFire(func() { out.shared = e.Now() })
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out.a, out.b = a.Throughput(), b.Throughput()
		out.filled, out.kept, out.replayed = n.filled, n.kept, n.replayed
		return out
	}

	fresh := sim.NewEngine()
	freshNet := New(fresh)
	freshLink := freshNet.NewLink("l", 1*gb, 0)
	want := run(fresh, freshNet, freshLink)

	used := sim.NewEngine()
	usedNet := New(used)
	usedLink := usedNet.NewLink("l", 1*gb, 0)
	fast := usedNet.NewLink("fast", 4*gb, 0)
	// Foreign history: a finished group, alone on faster links so it
	// recorded a memo, recycled; then an unrelated flow and a group left
	// mid-flight; then the world is recycled.
	recycled := usedNet.StartGroup([][]*Link{{fast}, {fast}}, 1e6, 2)
	if err := used.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recycled.memoEnd) == 0 {
		t.Fatal("foreign group recorded no memo")
	}
	usedNet.StartFlow(1e12, []*Link{usedLink})
	inFlight := usedNet.StartGroup([][]*Link{{usedLink}, {usedLink}}, 1e12, 4)
	usedNet.RecycleGroup(recycled)
	if err := used.RunUntil(1e6); err != nil {
		t.Fatal(err)
	}
	if inFlight.Completed() || usedNet.ActiveFlows() != 3 {
		t.Fatalf("foreign history not in flight: group completed %v, %d active flows",
			inFlight.Completed(), usedNet.ActiveFlows())
	}
	used.Reset()
	usedNet.Reset()
	//lint:allow floatcmp Reset stores the literal 0; any other bit pattern is a bug
	if usedLink.BytesCarried() != 0 || usedLink.FlowsCarried() != 0 {
		t.Errorf("link stats survived Reset: %v bytes, %d flows",
			usedLink.BytesCarried(), usedLink.FlowsCarried())
	}
	if usedNet.NumLinks() != 2 || usedNet.ActiveFlows() != 0 {
		t.Errorf("Reset network has %d links and %d active flows, want 2 and 0",
			usedNet.NumLinks(), usedNet.ActiveFlows())
	}
	if usedNet.filled != 0 || usedNet.kept != 0 || usedNet.replayed != 0 {
		t.Errorf("solver counters survived Reset: filled %d, kept %d, replayed %d",
			usedNet.filled, usedNet.kept, usedNet.replayed)
	}
	if len(usedNet.freeGroups) != 1 || usedNet.freeGroups[0] != recycled {
		t.Errorf("Reset did not keep the group free list: %v", usedNet.freeGroups)
	}
	got := run(used, usedNet, usedLink)
	if len(usedNet.freeGroups) != 0 {
		t.Errorf("the recycled group was not reused: %v", usedNet.freeGroups)
	}
	// Byte-identity is the property under test: recycled worlds must match
	// fresh ones exactly.
	if got != want {
		t.Errorf("recycled world differs from fresh: got %+v, want %+v", got, want)
	}
}
