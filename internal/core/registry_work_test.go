package core_test

import (
	"testing"

	"stash/internal/core"
	"stash/internal/experiments"
	"stash/internal/simnet"
)

// TestRegistryWorkCounts pins the simulation work of the whole registry
// at seed 1: the worlds built, the engine events they scheduled, the
// training steps simulated on them (skipped ones not counted), and the
// network's completion events, progressive-filling passes, completions
// that kept the standing rates and group rounds forwarded. The work is
// deterministic for a fixed seed at any parallelism, so a change that
// makes the simulator do more or less shows here as exact counts, where
// wall time on a shared host cannot tell a few percent from noise.
func TestRegistryWorkCounts(t *testing.T) {
	cfg := experiments.NewConfig(experiments.DefaultConfig().Iterations, 1, 0)
	got := core.RecordWork(func() {
		for _, r := range experiments.RunMany(cfg, experiments.Registry()) {
			if r.Err != nil {
				t.Errorf("%s: %v", r.Experiment.ID, r.Err)
			}
		}
	})
	want := core.Work{Worlds: 608, Events: 2168705, Steps: 2004, Counters: simnet.Counters{
		Completions: 352231, Filled: 231865, Kept: 177698, Forwarded: 1289933,
	}}
	if got != want {
		t.Errorf("registry work at seed 1:\n got %+v\nwant %+v", got, want)
	}
}
