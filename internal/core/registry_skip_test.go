package core_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"stash/internal/core"
	"stash/internal/experiments"
	"stash/internal/train"
)

// TestRegistrySkipMatchesEveryIteration is the whole-registry
// differential for the real-data skip: every real-data scenario that the
// registry simulates at seed 1, through its pool or through a profiler
// an experiment builds with its own options, must give the Result that
// a profiler of the same configuration gets by simulating every
// iteration.
func TestRegistrySkipMatchesEveryIteration(t *testing.T) {
	cfg := experiments.NewConfig(experiments.DefaultConfig().Iterations, 1, 0)
	var failed []string
	runs := core.RecordRealDataRuns(func() {
		for _, r := range experiments.RunMany(cfg, experiments.Registry()) {
			if r.Err != nil {
				failed = append(failed, r.Experiment.ID+": "+r.Err.Error())
			}
		}
	})
	if len(failed) > 0 {
		t.Fatalf("registry failed:\n%s", strings.Join(failed, "\n"))
	}
	if len(runs) < 280 {
		t.Fatalf("the registry simulated %d real-data scenarios, want at least the pool's 280", len(runs))
	}
	slices.SortFunc(runs, func(a, b core.RealDataRun) int { return strings.Compare(a.Name, b.Name) })
	full := make([]*train.Result, len(runs))
	err := core.ForEach(0, len(runs), func(i int) error {
		res, err := runs[i].Full()
		full[i] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if !reflect.DeepEqual(r.Result, full[i]) {
			t.Errorf("%s: the skipping run diverges from every iteration:\n got %+v\nwant %+v", r.Name, *r.Result, *full[i])
		}
	}
}
