package train

import (
	"errors"
	"math"
	"testing"
	"time"

	"stash/internal/cloud"
	"stash/internal/trace"
)

// exclusiveKinds are the span kinds that claim a worker's timeline
// exclusively. KindBarrier deliberately overlaps comm-wait (it is a
// synchronization annotation recorded by the collective layer) and is
// excluded.
var exclusiveKinds = []trace.Kind{
	trace.KindDataWait, trace.KindForward, trace.KindBackward,
	trace.KindHook, trace.KindCommWait, trace.KindOptimizer,
}

// TestSpansPartitionWorkerTimeline pins the double-count fix: the old
// single backward span covered hook and blocking comm-wait time too, so
// a worker's summed span time exceeded its wall time. Now the exclusive
// spans must partition the timeline: their sum never exceeds the
// worker's first-to-last span window, in both overlap and blocking
// configurations.
func TestSpansPartitionWorkerTimeline(t *testing.T) {
	job := resnet18Job(t, 32)
	for _, tc := range []struct {
		name           string
		instance       string
		disableOverlap bool
	}{
		{"overlap-nvlink", "p3.16xlarge", false},
		{"blocking-pcie", "p2.8xlarge", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.instance, 1, cloud.SliceDegraded)
			rec := trace.New()
			if _, err := Run(r.eng, r.net, Config{
				Job: job, Topology: r.top, Iterations: 3, Synthetic: true,
				DisableOverlap: tc.disableOverlap,
				Trace:          rec,
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			byWorker := map[int][]trace.Span{}
			for _, s := range rec.Spans() {
				if s.Worker >= 0 {
					byWorker[s.Worker] = append(byWorker[s.Worker], s)
				}
			}
			if len(byWorker) < 2 {
				t.Fatalf("only %d traced workers", len(byWorker))
			}
			for w, spans := range byWorker {
				first, last := spans[0].Start, spans[0].End
				var sum time.Duration
				busy := rec.WorkerBusy(w)
				for _, k := range exclusiveKinds {
					sum += busy[k]
				}
				for _, s := range spans {
					if s.Start < first {
						first = s.Start
					}
					if s.End > last {
						last = s.End
					}
				}
				if wall := last - first; sum > wall {
					t.Errorf("worker %d: exclusive span time %v exceeds wall window %v", w, sum, wall)
				}
			}
		})
	}
}

// TestBarrierSpansPerRank checks the collective layer records one
// KindBarrier span per rank per completed op, plus the group-level
// KindCollective span.
func TestBarrierSpansPerRank(t *testing.T) {
	r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	job := resnet18Job(t, 32)
	rec := trace.New()
	res, err := Run(r.eng, r.net, Config{
		Job: job, Topology: r.top, Iterations: 2, Synthetic: true,
		Trace: rec,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	perRank := map[int]int{}
	group := 0
	for _, s := range rec.Spans() {
		switch {
		case s.Kind == trace.KindBarrier:
			perRank[s.Worker]++
		case s.Kind == trace.KindCollective && s.Worker == -1:
			group++
		}
	}
	if group == 0 {
		t.Fatal("no group-level collective spans")
	}
	if len(perRank) != res.WorldSize {
		t.Fatalf("barrier spans on %d ranks, want %d", len(perRank), res.WorldSize)
	}
	for rank, n := range perRank {
		if n != group {
			t.Errorf("rank %d has %d barrier spans, want %d (one per op)", rank, n, group)
		}
	}
}

// TestStragglerBlamedFirst injects a slow rank and checks both the
// resulting comm-wait shift and that the frontier pass names it.
func TestStragglerBlamedFirst(t *testing.T) {
	job := resnet18Job(t, 32)
	run := func(rank int, scale float64) (*Result, *trace.Recorder) {
		r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
		rec := trace.New()
		res, err := Run(r.eng, r.net, Config{
			Job: job, Topology: r.top, Iterations: 3, Synthetic: true,
			StragglerRank: rank, StragglerScale: scale,
			Trace: rec,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res, rec
	}
	base, _ := run(0, 1)
	slow, rec := run(5, 1.5)
	if slow.CommWaitMax <= base.CommWaitMax {
		t.Errorf("straggler run comm wait %v not above baseline %v",
			slow.CommWaitMax, base.CommWaitMax)
	}
	a := rec.Attribute()
	if len(a.Workers) == 0 || a.Workers[0].Worker != 5 {
		t.Fatalf("top blamed worker = %+v, want rank 5", a.Workers)
	}
	if a.Workers[0].Blamed == 0 {
		t.Error("straggler accumulated no blame")
	}
	if a.Unattributed != 0 {
		t.Errorf("Unattributed = %v, want 0 on a fully barrier-annotated run", a.Unattributed)
	}
	if a.Attributed+a.Unattributed != a.TotalCommWait {
		t.Errorf("conservation broken: %v + %v != %v", a.Attributed, a.Unattributed, a.TotalCommWait)
	}
}

func TestStragglerValidation(t *testing.T) {
	r := newRig(t, "p3.16xlarge", 1, cloud.SliceDegraded)
	job := resnet18Job(t, 32)
	for _, tc := range []struct {
		rank  int
		scale float64
		want  error // nil: any error
	}{
		{0, 0.5, ErrStragglerScale},         // scale below 1
		{-1, 1.5, nil},                      // rank out of range
		{64, 1.5, nil},                      // rank out of range
		{1, math.NaN(), ErrStragglerScale},  // not a number
		{1, math.Inf(1), ErrStragglerScale}, // not finite
		{1, 1e300, ErrStragglerScale},       // slowed compute overflows time.Duration
		{1, 5e10, ErrStragglerScale},        // it fits, but not the waiting workers' sum
	} {
		_, err := Run(r.eng, r.net, Config{
			Job: job, Topology: r.top, Iterations: 1, Synthetic: true,
			StragglerRank: tc.rank, StragglerScale: tc.scale,
		})
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("rank %d scale %v: error %v, want %v", tc.rank, tc.scale, err, tc.want)
		}
	}
	// Scale 1 with any rank is the documented no-op.
	if _, err := Run(r.eng, r.net, Config{
		Job: job, Topology: r.top, Iterations: 1, Synthetic: true,
		StragglerRank: 99, StragglerScale: 1,
	}); err != nil {
		t.Errorf("scale 1 rejected: %v", err)
	}
}
