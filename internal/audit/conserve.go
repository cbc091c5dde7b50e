package audit

import (
	"context"
	"sync"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/workload"
)

// CheckStats checks a quiesced scheduler-counter snapshot: no counter
// may be negative, and the conservation law must hold exactly — every
// admitted request ended in exactly one of the four outcomes
// (Requests == Simulated + CacheHits + Waits + Cancelled),
// so Balance is zero. It is a pure function over the snapshot, so tests
// can feed it deliberately broken fakes.
func CheckStats(s core.Stats) *Result {
	res := checkStatsCommon(s)
	res.check(FamilyConservation, "balance-quiesced", s.Balance() == 0,
		"quiesced profiler leaks requests: %v (balance %d)", s, s.Balance())
	return res
}

// CheckStatsLive checks a snapshot that may have been taken mid-flight:
// counters are non-negative and Balance is >= 0 (admission is counted
// before the outcome, so the outcome sum can trail Requests but never
// lead it). stashd's deep health probe applies this to its live pools.
func CheckStatsLive(s core.Stats) *Result {
	res := checkStatsCommon(s)
	res.check(FamilyConservation, "balance-live", s.Balance() >= 0,
		"outcomes exceed admissions: %v (balance %d)", s, s.Balance())
	return res
}

func checkStatsCommon(s core.Stats) *Result {
	res := &Result{}
	res.check(FamilyConservation, "counters-nonnegative",
		s.Requests >= 0 && s.Simulated >= 0 && s.CacheHits >= 0 && s.Waits >= 0 && s.Cancelled >= 0,
		"negative scheduler counter: %v", s)
	return res
}

// auditConservation checks the scenario scheduler's counter accounting
// on the profiler the physical audit just exercised: the quiesced
// snapshot must balance, and after a concurrent burst of duplicate and
// deliberately pre-cancelled requests it must balance again, with every
// counter monotonically non-decreasing and the cancellations actually
// attributed to Cancelled (the pre-fix scheduler folded them into
// Waits).
func auditConservation(ctx context.Context, opts Options, p *core.Profiler, res *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	before := p.Stats()
	res.merge(CheckStats(before))

	job, it, ok := fittingCell(opts)
	if !ok {
		// An all-OOM matrix admits nothing; the quiesced check above is
		// all that can be said.
		return nil
	}
	res.check(FamilyConservation, "profiler-exercised", before.Requests > 0,
		"physical audit admitted no scenario requests: %v", before)

	// Concurrent exercise: even indices re-request the already-profiled
	// cell (served from cache), odd indices carry a context that is
	// already expired, so the scheduler must charge each of them to
	// Cancelled on admission.
	cancelledCtx, cancel := context.WithCancel(ctx)
	cancel()
	const burst = 8
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		c := ctx
		if i%2 == 1 {
			c = cancelledCtx
		}
		wg.Add(1)
		go func(c context.Context) {
			defer wg.Done()
			p.ProfileContext(c, job, it) //nolint:errcheck // cancelled calls fail by design
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	after := p.Stats()
	res.merge(CheckStats(after))
	res.check(FamilyConservation, "counters-monotonic",
		after.Requests >= before.Requests && after.Simulated >= before.Simulated &&
			after.CacheHits >= before.CacheHits && after.Waits >= before.Waits &&
			after.Cancelled >= before.Cancelled,
		"counters regressed across exercise: before %v, after %v", before, after)
	res.check(FamilyConservation, "cancelled-attributed", after.Cancelled >= before.Cancelled+burst/2,
		"%d pre-cancelled requests but Cancelled moved %d -> %d (folded into Waits?)",
		burst/2, before.Cancelled, after.Cancelled)
	res.check(FamilyConservation, "served-from-cache", after.CacheHits > before.CacheHits,
		"duplicate profile of a cached cell recorded no cache hits: before %v, after %v", before, after)
	return nil
}

// fittingCell returns a job/instance pair from the options' matrix that
// passes the GPU-memory fit check, if any — the conservation exercise
// needs a cell the scheduler will actually admit.
func fittingCell(opts Options) (workload.Job, cloud.InstanceType, bool) {
	for _, cell := range opts.Profiles {
		model, err := dnn.Resolve(cell.Model)
		if err != nil {
			continue
		}
		it, err := cloud.ByName(cell.Instance)
		if err != nil {
			continue
		}
		job, err := workload.NewJob(model, cell.Batch)
		if err != nil {
			continue
		}
		if model.TrainingMemoryBytes(cell.Batch) <= it.GPUMemPerGPU() {
			return job, it, true
		}
	}
	return workload.Job{}, cloud.InstanceType{}, false
}
