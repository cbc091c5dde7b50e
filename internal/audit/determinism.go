package audit

import (
	"context"
	"reflect"
	"strings"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/experiments"
	"stash/internal/workload"
)

// registryIDs lists every experiment in the registry, in registry
// order — the full determinism audit covers all of them.
func registryIDs() []string {
	reg := experiments.Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

// auditDeterminism checks the byte-stability guarantee the repository
// documents (docs/API.md "Determinism"): at a fixed seed, every
// registry artifact renders byte-identically serial vs parallel and
// run vs rerun. The serial, parallel and rerun passes each own a pool
// shared across the audited experiments, so every comparison is between
// independent simulations, never replays of one scenario cache. It
// closes with a profiler cache-key completeness check: a result
// computed on a cold cache must equal one computed after the cache was
// warmed with foreign scenarios — if a key field were missing, the
// warmed profiler would serve the wrong entry.
func auditDeterminism(ctx context.Context, opts Options, res *Result) error {
	serialCfg := experiments.NewConfig(opts.Iterations, opts.Seed, 1).WithContext(ctx)
	parallelCfg := experiments.NewConfig(opts.Iterations, opts.Seed, 8).WithContext(ctx)
	rerunCfg := experiments.NewConfig(opts.Iterations, opts.Seed, 1).WithContext(ctx)

	for _, id := range opts.Experiments {
		if err := ctx.Err(); err != nil {
			return err
		}
		e, err := experiments.ByID(id)
		if err != nil {
			res.check(FamilyDeterminism, "experiment-known", false, "%v", err)
			continue
		}
		serial, err := renderExperiment(e, serialCfg)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.check(FamilyDeterminism, "experiment-runs", false, "%s (serial): %v", id, err)
			continue
		}
		res.check(FamilyDeterminism, "experiment-nonempty", serial != "",
			"%s rendered no table bytes", id)
		parallel, err := renderExperiment(e, parallelCfg)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.check(FamilyDeterminism, "experiment-runs", false, "%s (parallel): %v", id, err)
			continue
		}
		res.check(FamilyDeterminism, "serial-vs-parallel", serial == parallel,
			"%s renders differently at parallelism 1 vs 8 (%d vs %d bytes)", id, len(serial), len(parallel))
		rerun, err := renderExperiment(e, rerunCfg)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.check(FamilyDeterminism, "experiment-runs", false, "%s (rerun): %v", id, err)
			continue
		}
		res.check(FamilyDeterminism, "run-vs-rerun", serial == rerun,
			"%s renders differently across reruns at seed %d (%d vs %d bytes)", id, opts.Seed, len(serial), len(rerun))
	}

	if err := auditCacheKey(ctx, opts, res); err != nil {
		return err
	}
	return auditOnePeriod(ctx, opts, res)
}

// auditOnePeriod checks the one-period guarantee: a profile computed
// the default way, whose training runs skip the steps that provably
// repeat (see train.Run), must be deeply equal to one whose every
// training run simulates all its warmup and measured steps. The profile
// covers both kinds of skip: its synthetic runs (steps ①, ② and ⑤)
// simulate one step and scale it, and its real-data runs (steps ③ and
// ④) skip the periods their boundary fingerprints repeat. Any divergence
// means synthetic training is not periodic from iteration zero, or a
// real-data fingerprint missed state that shapes later steps, and the
// one-period path is unsound.
func auditOnePeriod(ctx context.Context, opts Options, res *Result) error {
	job, it, ok := fittingCell(opts)
	if !ok {
		return nil
	}
	mk := func(every bool) *core.Profiler {
		return core.New(
			core.WithIterations(opts.Iterations),
			core.WithSeed(opts.Seed),
			core.WithParallelism(opts.Parallelism),
			core.WithEveryIteration(every),
		)
	}
	period, err := mk(false).ProfileContext(ctx, job, it)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		res.check(FamilyDeterminism, "one-period-profile", false, "one-period profile: %v", err)
		return nil
	}
	full, err := mk(true).ProfileContext(ctx, job, it)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		res.check(FamilyDeterminism, "one-period-profile", false, "every-iteration profile: %v", err)
		return nil
	}
	res.check(FamilyDeterminism, "one-period-vs-full", reflect.DeepEqual(period, full),
		"%s@%s profiles differently from one period than from every iteration — synthetic training (steps ①②⑤) is not periodic from iteration zero, or a real-data fingerprint (steps ③④) missed state",
		job.Model.Name, it.Name)
	return nil
}

// renderExperiment concatenates every table of one experiment run into
// a single string — the byte-level artifact the determinism guarantee
// covers (the same rendering the CLIs and stashd emit).
func renderExperiment(e experiments.Experiment, cfg experiments.Config) (string, error) {
	tables, err := e.Run(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
		b.WriteString(tb.CSV())
	}
	return b.String(), nil
}

// auditCacheKey checks scenario-cache key completeness: two profilers
// built with identical options must report the same profile for a cell
// whether or not foreign scenarios were simulated first. A scenarioKey
// missing a distinguishing field would make the warmed profiler return
// a foreign cached result here.
func auditCacheKey(ctx context.Context, opts Options, res *Result) error {
	job, it, ok := fittingCell(opts)
	if !ok {
		return nil
	}
	foreign, foreignIt, haveForeign := foreignCell(opts, job, it)

	mk := func() *core.Profiler {
		return core.New(
			core.WithIterations(opts.Iterations),
			core.WithSeed(opts.Seed),
			core.WithParallelism(opts.Parallelism),
		)
	}
	cold := mk()
	warmed := mk()
	if haveForeign {
		if _, err := warmed.ProfileContext(ctx, foreign, foreignIt); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.check(FamilyDeterminism, "cache-key-warmup", false,
				"warming profile %s@%s: %v", foreign.Model.Name, foreignIt.Name, err)
			return nil
		}
	}
	a, err := cold.ProfileContext(ctx, job, it)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		res.check(FamilyDeterminism, "cache-key-profile", false, "cold profile: %v", err)
		return nil
	}
	b, err := warmed.ProfileContext(ctx, job, it)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		res.check(FamilyDeterminism, "cache-key-profile", false, "warmed profile: %v", err)
		return nil
	}
	res.check(FamilyDeterminism, "cache-key-complete", reflect.DeepEqual(a, b),
		"%s@%s profiles differently on a cache warmed with %s@%s — scenario key incomplete",
		job.Model.Name, it.Name, foreign.Model.Name, foreignIt.Name)
	return nil
}

// foreignCell returns a second admittable cell from the matrix that
// differs from (job, it); when the matrix has no second fitting cell it
// falls back to profiling the same model on a different instance.
func foreignCell(opts Options, job workload.Job, it cloud.InstanceType) (workload.Job, cloud.InstanceType, bool) {
	for _, cell := range opts.Profiles {
		model, err := dnn.Resolve(cell.Model)
		if err != nil {
			continue
		}
		cit, err := cloud.ByName(cell.Instance)
		if err != nil {
			continue
		}
		if model.Name == job.Model.Name && cit.Name == it.Name {
			continue
		}
		cjob, err := workload.NewJob(model, cell.Batch)
		if err != nil {
			continue
		}
		if model.TrainingMemoryBytes(cell.Batch) <= cit.GPUMemPerGPU() {
			return cjob, cit, true
		}
	}
	for _, name := range []string{"p2.xlarge", "p3.2xlarge", "p3.8xlarge"} {
		if name == it.Name {
			continue
		}
		cit, err := cloud.ByName(name)
		if err != nil {
			continue
		}
		if job.Model.TrainingMemoryBytes(job.BatchPerGPU) <= cit.GPUMemPerGPU() {
			return job, cit, true
		}
	}
	return workload.Job{}, cloud.InstanceType{}, false
}
