package simnet

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"stash/internal/sim"
)

const gb = 1e9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlowFullCapacity(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("pcie", 10*gb, 0)
	f := n.StartFlow(10*gb, []*Link{l})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !f.Completed() {
		t.Fatal("flow did not complete")
	}
	if got := f.Duration(); got < time.Second || got > time.Second+time.Microsecond {
		t.Errorf("duration = %v, want ~1s", got)
	}
}

func TestLatencyAddsToCompletion(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("net", 1*gb, 100*time.Millisecond)
	f := n.StartFlow(1*gb, []*Link{l})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := 1100 * time.Millisecond
	if got := f.Duration(); got < want || got > want+time.Microsecond {
		t.Errorf("duration = %v, want ~%v", got, want)
	}
}

func TestZeroByteFlowCompletesAfterLatency(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("net", 1*gb, 50*time.Millisecond)
	f := n.StartFlow(0, []*Link{l})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := f.Duration(); got != 50*time.Millisecond {
		t.Errorf("duration = %v, want 50ms", got)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("bus", 10*gb, 0)
	f1 := n.StartFlow(10*gb, []*Link{l})
	f2 := n.StartFlow(10*gb, []*Link{l})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Each gets 5 GB/s, so both finish at 2s.
	for i, f := range []*Flow{f1, f2} {
		if got := f.Duration(); got < 2*time.Second || got > 2*time.Second+time.Microsecond {
			t.Errorf("flow %d duration = %v, want ~2s", i, got)
		}
	}
}

func TestLateFlowSpeedsUpAfterFirstFinishes(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("bus", 10*gb, 0)
	// f1: 5 GB. f2: 15 GB. Both start together at 5 GB/s each.
	// f1 done at t=1s. f2 then has 10 GB left at 10 GB/s -> done at t=2s.
	f1 := n.StartFlow(5*gb, []*Link{l})
	f2 := n.StartFlow(15*gb, []*Link{l})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := f1.Duration().Seconds(); !almostEqual(got, 1, 1e-6) {
		t.Errorf("f1 duration = %vs, want 1s", got)
	}
	if got := f2.Duration().Seconds(); !almostEqual(got, 2, 1e-6) {
		t.Errorf("f2 duration = %vs, want 2s", got)
	}
}

func TestStaggeredStart(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("bus", 10*gb, 0)
	f1 := n.StartFlow(10*gb, []*Link{l})
	var f2 *Flow
	e.Schedule(500*time.Millisecond, func() {
		f2 = n.StartFlow(10*gb, []*Link{l})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// f1 alone for 0.5s (5 GB done), then shares: 5 GB left at 5 GB/s ->
	// finishes at 1.5s. f2 then solo: started 0.5, transferred 5 GB by 1.5,
	// 5 GB left at 10 GB/s -> finishes at 2.0s.
	if got := f1.finished.Seconds(); !almostEqual(got, 1.5, 1e-6) {
		t.Errorf("f1 finished at %vs, want 1.5s", got)
	}
	if got := f2.finished.Seconds(); !almostEqual(got, 2.0, 1e-6) {
		t.Errorf("f2 finished at %vs, want 2.0s", got)
	}
}

func TestBottleneckOnSharedMiddleLink(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	a := n.NewLink("a", 100*gb, 0)
	b := n.NewLink("b", 100*gb, 0)
	shared := n.NewLink("shared", 10*gb, 0)
	f1 := n.StartFlow(10*gb, []*Link{a, shared})
	f2 := n.StartFlow(10*gb, []*Link{b, shared})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, f := range []*Flow{f1, f2} {
		if got := f.Duration().Seconds(); !almostEqual(got, 2, 1e-6) {
			t.Errorf("flow %d duration = %vs, want 2s (5 GB/s shared)", i, got)
		}
	}
}

func TestMaxMinUnevenShares(t *testing.T) {
	// Classic max-min example: flows A(l1), B(l1,l2), C(l2).
	// l1 cap 10, l2 cap 4. B and C bottleneck on l2 at 2 each; A then gets
	// the l1 residual: 8.
	e := sim.NewEngine()
	n := New(e)
	l1 := n.NewLink("l1", 10, 0)
	l2 := n.NewLink("l2", 4, 0)
	fa := n.StartFlow(1e12, []*Link{l1})
	fb := n.StartFlow(1e12, []*Link{l1, l2})
	fc := n.StartFlow(1e12, []*Link{l2})
	// Let rates be computed, then inspect before anything completes.
	if err := e.RunUntil(time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !almostEqual(fa.Rate(), 8, 1e-9) {
		t.Errorf("rate A = %v, want 8", fa.Rate())
	}
	if !almostEqual(fb.Rate(), 2, 1e-9) {
		t.Errorf("rate B = %v, want 2", fb.Rate())
	}
	if !almostEqual(fc.Rate(), 2, 1e-9) {
		t.Errorf("rate C = %v, want 2", fc.Rate())
	}
}

func TestPerGPUBandwidthDropsWithContention(t *testing.T) {
	// The Fig-7 phenomenon: per-flow achieved bandwidth falls as more
	// flows share a fixed aggregate bus.
	perGPU := func(nflows int) float64 {
		e := sim.NewEngine()
		n := New(e)
		bus := n.NewLink("rootcomplex", 48*gb, 0)
		var flows []*Flow
		for i := 0; i < nflows; i++ {
			flows = append(flows, n.StartFlow(4.8*gb, []*Link{bus}))
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return flows[0].Throughput()
	}
	bw1, bw8, bw16 := perGPU(1), perGPU(8), perGPU(16)
	if !(bw1 > bw8 && bw8 > bw16) {
		t.Errorf("bandwidth not monotonically degrading: 1=%v 8=%v 16=%v", bw1, bw8, bw16)
	}
	if !almostEqual(bw16, 3*gb, 1e-6) {
		t.Errorf("16-way share = %v, want 3 GB/s", bw16)
	}
}

func TestLinkStatistics(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("link", 1*gb, 0)
	n.StartFlow(1*gb, []*Link{l})
	n.StartFlow(2*gb, []*Link{l})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := l.BytesCarried(); !almostEqual(got, 3*gb, 1e-6) {
		t.Errorf("BytesCarried = %v, want 3 GB", got)
	}
	if got := l.FlowsCarried(); got != 2 {
		t.Errorf("FlowsCarried = %d, want 2", got)
	}
}

func TestActiveFlowsBookkeeping(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("link", 1*gb, 0)
	n.StartFlow(1*gb, []*Link{l})
	if err := e.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n.ActiveFlows() != 1 {
		t.Errorf("ActiveFlows = %d mid-transfer, want 1", n.ActiveFlows())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("ActiveFlows = %d after drain, want 0", n.ActiveFlows())
	}
}

// TestFlowBeyondHorizonFinishesOnTime: a flow is due at most
// maxHorizonSeconds ahead, so a longer one is settled at the horizon and
// planned again. 3e9 bytes at 1 B/s passes the horizon twice and must
// finish at exactly 3e9 s, not at the horizon.
func TestFlowBeyondHorizonFinishesOnTime(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := n.NewLink("slow", 1, 0)
	f := n.StartFlow(3e9, []*Link{l})
	if err := e.RunUntil(maxHorizonSeconds * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Completed() {
		t.Fatalf("flow finished at the horizon, %v", f.finished)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 3e9 * time.Second; !f.Completed() || f.finished != want {
		t.Errorf("flow finished at %v (completed %v), want %v", f.finished, f.Completed(), want)
	}
	if l.BytesCarried() != 3e9 {
		t.Errorf("BytesCarried = %v, want 3e9", l.BytesCarried())
	}
}

// Property: total bytes delivered equals sum of flow sizes, and per-flow
// durations are at least size/capacity.
func TestQuickConservationAndLowerBound(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 40 {
			return true
		}
		e := sim.NewEngine()
		n := New(e)
		l := n.NewLink("bus", 1e6, 0)
		var flows []*Flow
		var total float64
		for _, s := range sizes {
			sz := float64(s) + 1
			total += sz
			flows = append(flows, n.StartFlow(sz, []*Link{l}))
		}
		if err := e.Run(); err != nil {
			return false
		}
		for _, fl := range flows {
			if !fl.Completed() {
				return false
			}
			minDur := fl.bytes / l.Capacity()
			if fl.Duration().Seconds() < minDur-1e-9 {
				return false
			}
		}
		return almostEqual(l.BytesCarried(), total, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with a single shared link, all concurrent equal-size flows
// finish simultaneously (fair sharing is symmetric).
func TestQuickFairnessSymmetry(t *testing.T) {
	f := func(nRaw uint8, sizeRaw uint16) bool {
		nflows := int(nRaw%16) + 2
		size := float64(sizeRaw) + 1000
		e := sim.NewEngine()
		net := New(e)
		l := net.NewLink("bus", 1e6, 0)
		var flows []*Flow
		for i := 0; i < nflows; i++ {
			flows = append(flows, net.StartFlow(size, []*Link{l}))
		}
		if err := e.Run(); err != nil {
			return false
		}
		first := flows[0].finished
		for _, fl := range flows {
			if d := (fl.finished - first).Seconds(); math.Abs(d) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNewLinkRejectsBadSpecs: a link's capacity must be finite and
// positive and its latency non-negative. NaN and +Inf capacities used to
// pass a `<= 0` check, and a negative latency panicked only when a flow
// started on the link.
func TestNewLinkRejectsBadSpecs(t *testing.T) {
	for _, c := range []struct {
		name     string
		capacity float64
		latency  time.Duration
	}{
		{"zero capacity", 0, 0},
		{"negative capacity", -1, 0},
		{"NaN capacity", math.NaN(), 0},
		{"infinite capacity", math.Inf(1), 0},
		{"negative latency", gb, -time.Nanosecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := New(sim.NewEngine())
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(%v, %v) did not panic", c.capacity, c.latency)
				}
			}()
			n.NewLink("l", c.capacity, c.latency)
		})
	}
}
