package main

import (
	"strings"
	"testing"
)

func fileOf(samples ...sample) *benchFile {
	return &benchFile{Date: "20260805", Benchmarks: samples}
}

func s(name string, ns float64, warmup bool) sample {
	return sample{Name: name, Package: "stash/internal/sim", NsPerOp: ns, Warmup: warmup}
}

func TestSummarizeSkipsFlaggedWarmup(t *testing.T) {
	f := fileOf(
		s("BenchmarkX", 9000, true),
		s("BenchmarkX", 2000, false),
		s("BenchmarkX", 1500, false),
	)
	st := summarize(f)
	got := st["stash/internal/sim.BenchmarkX"]
	if got.nsPerOp != 1500 || got.warmOnly {
		t.Fatalf("steady = %+v, want min non-warmup 1500", got)
	}
}

func TestSummarizeLegacyFirstSampleIsWarmup(t *testing.T) {
	// No sample carries the warmup flag (pre-flag BENCH files): the first
	// sample per benchmark is the cold one and must be skipped.
	f := fileOf(
		s("BenchmarkX", 33718283763, false),
		s("BenchmarkX", 1714039387, false),
		s("BenchmarkX", 1709688592, false),
	)
	st := summarize(f)
	if got := st["stash/internal/sim.BenchmarkX"].nsPerOp; got != 1709688592 {
		t.Fatalf("legacy steady = %v, want 1709688592", got)
	}
}

func TestSummarizeWarmupOnlySurvives(t *testing.T) {
	f := fileOf(s("BenchmarkX", 5000, true))
	st := summarize(f)
	got, ok := st["stash/internal/sim.BenchmarkX"]
	if !ok || !got.warmOnly || got.nsPerOp != 5000 {
		t.Fatalf("warmup-only benchmark lost: %+v ok=%v", got, ok)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	before := summarize(fileOf(s("BenchmarkX", 0, true), s("BenchmarkX", 1000, false)))
	after := summarize(fileOf(s("BenchmarkX", 0, true), s("BenchmarkX", 1200, false)))
	var buf strings.Builder
	regressed := compare(&buf, before, after, 10)
	if len(regressed) != 1 {
		t.Fatalf("regressed = %v, want 1 entry (out:\n%s)", regressed, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Fatalf("output missing REGRESSED marker:\n%s", buf.String())
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	before := summarize(fileOf(s("BenchmarkX", 0, true), s("BenchmarkX", 1000, false)))
	after := summarize(fileOf(s("BenchmarkX", 0, true), s("BenchmarkX", 1050, false)))
	var buf strings.Builder
	if regressed := compare(&buf, before, after, 10); len(regressed) != 0 {
		t.Fatalf("regressed = %v, want none", regressed)
	}
}

func TestCompareImprovementNeverFails(t *testing.T) {
	before := summarize(fileOf(s("BenchmarkX", 0, true), s("BenchmarkX", 1573, false)))
	after := summarize(fileOf(s("BenchmarkX", 0, true), s("BenchmarkX", 478, false)))
	var buf strings.Builder
	if regressed := compare(&buf, before, after, 0); len(regressed) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regressed)
	}
	if !strings.Contains(buf.String(), "-69.6%") {
		t.Fatalf("expected -69.6%% delta in output:\n%s", buf.String())
	}
}

func TestCompareNegativeThresholdDisables(t *testing.T) {
	before := summarize(fileOf(s("BenchmarkX", 0, true), s("BenchmarkX", 100, false)))
	after := summarize(fileOf(s("BenchmarkX", 0, true), s("BenchmarkX", 10000, false)))
	var buf strings.Builder
	if regressed := compare(&buf, before, after, -1); len(regressed) != 0 {
		t.Fatalf("negative threshold still failed: %v", regressed)
	}
}

func TestCompareNewAndGoneBenchmarks(t *testing.T) {
	before := summarize(fileOf(s("BenchmarkOld", 0, true), s("BenchmarkOld", 100, false)))
	after := summarize(fileOf(s("BenchmarkNew", 0, true), s("BenchmarkNew", 200, false)))
	var buf strings.Builder
	if regressed := compare(&buf, before, after, 10); len(regressed) != 0 {
		t.Fatalf("appearing/disappearing benchmarks must not fail: %v", regressed)
	}
	out := buf.String()
	if !strings.Contains(out, "new") || !strings.Contains(out, "gone") {
		t.Fatalf("output missing new/gone markers:\n%s", out)
	}
}

func TestCompareShowsAllocs(t *testing.T) {
	allocs := func(v float64) *float64 { return &v }
	before := map[string]steady{"p.B": {nsPerOp: 100, allocs: allocs(7)}}
	after := map[string]steady{"p.B": {nsPerOp: 90, allocs: allocs(0)}}
	var buf strings.Builder
	compare(&buf, before, after, 10)
	if !strings.Contains(buf.String(), "allocs/op") {
		t.Fatalf("allocs line missing:\n%s", buf.String())
	}
}

// speedupFile builds a benchFile carrying only the derived
// parallel_speedup and gomaxprocs fields the floor gate reads.
func speedupFile(speedup float64, procs int) *benchFile {
	return &benchFile{Date: "20260808", ParallelSpeedup: &speedup, GoMaxProcs: &procs}
}

func TestSpeedupGateFailsBelowFloorOnWideHosts(t *testing.T) {
	line, failed := speedupVerdict(speedupFile(2.1, 8), speedupFile(1.2, 8))
	if !failed {
		t.Fatal("1.2x on 8-P hosts should break the 1.5x floor")
	}
	if !strings.Contains(line, "BELOW 1.5x FLOOR") {
		t.Errorf("line lacks floor note: %q", line)
	}
}

func TestSpeedupGatePassesAboveFloor(t *testing.T) {
	line, failed := speedupVerdict(speedupFile(2.1, 8), speedupFile(1.8, 4))
	if failed {
		t.Fatalf("1.8x should clear the floor: %q", line)
	}
	if !strings.Contains(line, "1.80x") {
		t.Errorf("diff line missing new ratio: %q", line)
	}
}

func TestSpeedupGateUnarmedOnNarrowHosts(t *testing.T) {
	// 2-P and 3-P hosts diff informationally but never gate.
	if line, failed := speedupVerdict(speedupFile(2.1, 8), speedupFile(1.1, 2)); failed {
		t.Fatalf("2-P snapshot must not arm the floor: %q", line)
	}
	if line, failed := speedupVerdict(speedupFile(1.1, 3), speedupFile(1.1, 8)); failed {
		t.Fatalf("3-P old snapshot must not arm the floor: %q", line)
	}
}

func TestSpeedupGateUnarmedWhenWidthUnknown(t *testing.T) {
	old := speedupFile(2.0, 8)
	old.GoMaxProcs = nil // pre-field file: width unknown
	if line, failed := speedupVerdict(old, speedupFile(1.1, 8)); failed {
		t.Fatalf("unknown-width snapshot must not arm the floor: %q", line)
	}
}

func TestSpeedupSinglePStillSkipsWithNote(t *testing.T) {
	line, failed := speedupVerdict(speedupFile(2.0, 8), speedupFile(1.0, 1))
	if failed {
		t.Fatal("single-P snapshots must skip, not fail")
	}
	if !strings.Contains(line, "skipped") || !strings.Contains(line, "GOMAXPROCS < 2") {
		t.Errorf("missing skip note: %q", line)
	}
}

func TestLayerShareDiff(t *testing.T) {
	before := &benchFile{LayerShare: map[string]float64{"simnet": 0.733, "sim": 0.203, "gone": 0.01}}
	after := &benchFile{LayerShare: map[string]float64{"simnet": 0.641, "sim": 0.25, "fresh": 0.02}}
	var buf strings.Builder
	layerShareDiff(&buf, before, after)
	out := buf.String()
	for _, want := range []string{"advisory", "cpu_share.simnet", "0.733", "0.641", "-9.2", "+4.7"} {
		if !strings.Contains(out, want) {
			t.Errorf("layer-share diff lacks %q:\n%s", want, out)
		}
	}
	// A layer only one side has shows "-" on the other and no delta.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "cpu_share.gone") && !strings.Contains(line, " -") {
			t.Errorf("gone layer not dashed: %q", line)
		}
	}
	if !strings.Contains(out, "cpu_share.fresh") {
		t.Errorf("new layer missing:\n%s", out)
	}
}

func TestLayerShareDiffSilentWithoutShares(t *testing.T) {
	var buf strings.Builder
	layerShareDiff(&buf, fileOf(), fileOf())
	if buf.Len() != 0 {
		t.Errorf("files without layer_share printed:\n%s", buf.String())
	}
}
