package core

import (
	"context"
	"fmt"
	"sync"

	"stash/internal/simnet"
	"stash/internal/train"
	"stash/internal/workload"
)

// RealDataRun is a real-data scenario that a profiler simulated: its
// name, its result, and Full, which simulates it again on a profiler of
// the same configuration that simulates every iteration.
type RealDataRun struct {
	Name   string
	Result *train.Result
	Full   func() (*train.Result, error)
}

// RecordRealDataRuns calls fn and returns every real-data scenario that
// any profiler simulated meanwhile. fn must have finished every
// simulation it started when it returns.
func RecordRealDataRuns(fn func()) []RealDataRun {
	var mu sync.Mutex
	var runs []RealDataRun
	observeSimulation = func(p *Profiler, job workload.Job, sc scenario, res *train.Result) {
		if sc.mode == modeSynthetic || res == nil {
			return
		}
		full := New(WithIterations(p.iterations), WithSlicePolicy(p.slicePolicy), WithSeed(p.seed),
			WithCollectiveOptions(p.collectiveOpts...), WithEveryIteration(true))
		mu.Lock()
		defer mu.Unlock()
		runs = append(runs, RealDataRun{
			Name: fmt.Sprintf("%s b%d on %dx%s/%d mode %d iterations %d slicing %v seed %d",
				job.Model.Name, job.BatchPerGPU, sc.count, sc.instance.Name, sc.gpusPer, sc.mode,
				p.iterations, p.slicePolicy, p.seed),
			Result: res,
			Full:   func() (*train.Result, error) { return full.run(context.Background(), job, sc) },
		})
	}
	defer func() { observeSimulation = nil }()
	fn()
	return runs
}

// Work is the simulation work of a set of worlds: how many, the engine
// events they scheduled, the training steps simulated on them and their
// networks' counters, summed.
type Work struct {
	Worlds int
	Events uint64
	Steps  uint64
	simnet.Counters
}

// RecordWork calls fn and returns the work of every world built
// meanwhile. fn must have finished every simulation it started when it
// returns, and nothing else may simulate meanwhile: the steps are read
// from train's process-wide count.
func RecordWork(fn func()) Work {
	var mu sync.Mutex
	var w Work
	steps := train.StepsSimulated()
	observeWorld = func(world World) {
		c := world.Net.Counters()
		mu.Lock()
		defer mu.Unlock()
		w.Worlds++
		w.Events += world.Engine.Scheduled()
		w.Completions += c.Completions
		w.Filled += c.Filled
		w.Kept += c.Kept
		w.Forwarded += c.Forwarded
	}
	defer func() { observeWorld = nil }()
	fn()
	w.Steps = train.StepsSimulated() - steps
	return w
}
