package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"stash/internal/cloud"
	"stash/internal/workload"
)

func blameFixture(t *testing.T) (workload.Job, cloud.InstanceType) {
	t.Helper()
	return job(t, resnet18(t), 32), instance(t, "p3.8xlarge")
}

func TestBlameNamesInjectedStraggler(t *testing.T) {
	job, it := blameFixture(t)
	p := New(WithIterations(4))
	rep, err := p.Blame(job, it, BlameOptions{StragglerRank: it.NGPUs - 1, StragglerScale: 1.5})
	if err != nil {
		t.Fatalf("Blame: %v", err)
	}
	if len(rep.Workers) != it.NGPUs {
		t.Fatalf("blame table has %d rows, want %d", len(rep.Workers), it.NGPUs)
	}
	if rep.Workers[0].Rank != it.NGPUs-1 {
		t.Errorf("top blamed rank = %d, want the straggler %d", rep.Workers[0].Rank, it.NGPUs-1)
	}
	if rep.Attributed+rep.Unattributed != rep.TotalCommWait || rep.Unattributed != 0 {
		t.Errorf("conservation: attributed %v + unattributed %v vs total %v",
			rep.Attributed, rep.Unattributed, rep.TotalCommWait)
	}
	if !strings.Contains(rep.String(), "injected straggler: rank 3") {
		t.Errorf("rendering lacks straggler line:\n%s", rep)
	}
}

func TestBlameValidation(t *testing.T) {
	job, it := blameFixture(t)
	p := New(WithIterations(2))
	for _, opt := range []BlameOptions{
		{StragglerRank: -1, StragglerScale: 2},       // rank out of range
		{StragglerRank: it.NGPUs, StragglerScale: 2}, // rank out of range
		{StragglerRank: 0, StragglerScale: 0.5},      // scale below 1
		{Nodes: 3},                                   // 4 GPUs not divisible by 3
	} {
		if _, err := p.Blame(job, it, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
	// A scale that cannot be injected fails with ErrStragglerScale, and
	// the message says why.
	for _, tc := range []struct {
		scale float64
		want  string
	}{
		{0.5, "0.5 is not a finite factor above 1"},
		{math.NaN(), "NaN is not a finite factor above 1"},
		{math.Inf(1), "+Inf is not a finite factor above 1"},
		{1e300, "1e+300 times 4 workers'"},
	} {
		_, err := p.Blame(job, it, BlameOptions{StragglerRank: 1, StragglerScale: tc.scale})
		if !errors.Is(err, ErrStragglerScale) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("scale %v: error %v, want ErrStragglerScale naming %q", tc.scale, err, tc.want)
		}
	}
}

func TestBlameDeterministicAcrossRuns(t *testing.T) {
	job, it := blameFixture(t)
	opt := BlameOptions{StragglerRank: 1, StragglerScale: 1.5}
	mk := func(par int) string {
		rep, err := New(WithIterations(4), WithParallelism(par)).Blame(job, it, opt)
		if err != nil {
			t.Fatalf("Blame: %v", err)
		}
		return rep.String()
	}
	a, b, c := mk(1), mk(1), mk(8)
	if a != b {
		t.Errorf("run vs rerun differ:\n%s\nvs\n%s", a, b)
	}
	if a != c {
		t.Errorf("serial vs parallel profiler differ:\n%s\nvs\n%s", a, c)
	}
}
