package core_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/experiments"
	"stash/internal/report"
)

// TestNestedSweepStaysInBudget runs experiments through RunMany at four
// times the budget's parallelism, so experiment workers, their sweeps
// and the profiler's scenarios nest. Beside a few registry experiments
// runs a probe whose own sweep reads the simulations in flight from
// inside each of its worlds, after yielding to let others pile in:
// never more run at once than the budget has slots. The whole sweep must
// finish, which it would not if any slot were held across a wait for
// another simulation.
func TestNestedSweepStaysInBudget(t *testing.T) {
	slots := int64(runtime.GOMAXPROCS(0))
	it, err := cloud.ByName("p3.2xlarge")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var peak int64
	probe := experiments.Experiment{ID: "probe", Run: func(cfg experiments.Config) ([]*report.Table, error) {
		return nil, core.ForEach(cfg.Parallelism, 8*int(slots), func(int) error {
			prov := cloud.NewProvisioner(cloud.SliceDegraded, 1)
			_, err := core.Simulate(context.Background(), prov, it, 1, func(core.World) (struct{}, error) {
				time.Sleep(time.Millisecond)
				mu.Lock()
				peak = max(peak, core.SimulationsRunning())
				mu.Unlock()
				return struct{}{}, nil
			})
			return err
		})
	}}
	exps := []experiments.Experiment{probe}
	for _, id := range []string{"fig5", "fig7", "fig13", "ablate-overlap", "network-variance"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}

	done := make(chan []experiments.RunResult, 1)
	go func() { done <- experiments.RunMany(experiments.NewConfig(4, 1, 4*int(slots)), exps) }()
	select {
	case results := <-done:
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("%s: %v", r.Experiment.ID, r.Err)
			}
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("nested sweep did not finish: a slot is held across a wait")
	}
	if peak < 1 || peak > slots {
		t.Errorf("%d simulations seen at once, want 1 to the budget's %d", peak, slots)
	}
	if got := core.SimulationsRunning(); got != 0 {
		t.Errorf("%d simulations still running after the sweep", got)
	}
}
