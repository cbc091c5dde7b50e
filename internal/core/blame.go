package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"stash/internal/cloud"
	"stash/internal/topo"
	"stash/internal/trace"
	"stash/internal/train"
	"stash/internal/workload"
)

// DefaultStragglerScale is the compute slowdown factor callers inject
// when they ask for a straggler without choosing a scale.
const DefaultStragglerScale = 1.5

// ErrStragglerScale is the error BlameContext wraps when a straggler
// scale cannot be injected: below 1, not finite, or so large that the
// workers' summed time would overflow the simulated clock.
var ErrStragglerScale = train.ErrStragglerScale

// BlameOptions configures one frontier blame measurement.
type BlameOptions struct {
	// Nodes spreads the instance's GPUs across this many
	// network-connected machines, like the methodology's step 5. 0 or 1
	// runs a single instance with every GPU.
	Nodes int

	// StragglerRank, when StragglerScale > 1, is the rank whose compute
	// is slowed by that factor (a synthetic straggler for calibration
	// and testing). Use -1 and scale 0/1 for an uninstrumented run.
	StragglerRank  int
	StragglerScale float64
}

// WorkerBlameRow is one rank of a BlameReport, mirroring
// trace.WorkerBlame plus its share of the total.
type WorkerBlameRow struct {
	Rank int

	// Blamed is comm-wait time attributed to this rank arriving last;
	// BlamedPct is its share of TotalCommWait.
	Blamed    time.Duration
	BlamedPct float64

	// SelfWait is the rank's own comm-wait; FrontierBarriers how many
	// barriers it fronted.
	SelfWait         time.Duration
	FrontierBarriers int
}

// BlameReport is the frontier blame attribution of one traced training
// run: for every all-reduce barrier the last-arriving rank is charged
// the comm-wait it caused, summed over the run.
type BlameReport struct {
	Model    string
	Instance string
	Batch    int
	Nodes    int

	WorldSize  int
	Iterations int

	// StragglerRank is -1 (and StragglerScale 1) when nothing was
	// injected.
	StragglerRank  int
	StragglerScale float64

	// Barriers is the number of collectives attributed; TiedBarriers
	// those where every rank arrived simultaneously (their blame
	// defaults to rank 0 and carries no culprit signal).
	Barriers     int
	TiedBarriers int

	// TotalCommWait = Attributed + Unattributed; with per-rank barrier
	// spans recorded, Unattributed is zero (audited).
	TotalCommWait time.Duration
	Attributed    time.Duration
	Unattributed  time.Duration

	// Workers is the blame table, worst offender first.
	Workers []WorkerBlameRow
}

// String renders the ranked blame table.
func (b *BlameReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "blame: %s on %dx %s (batch %d, %d workers, %d iterations)\n",
		b.Model, b.Nodes, b.Instance, b.Batch, b.WorldSize, b.Iterations)
	if b.StragglerScale > 1 {
		fmt.Fprintf(&sb, "  injected straggler: rank %d at %.2fx compute\n", b.StragglerRank, b.StragglerScale)
	}
	fmt.Fprintf(&sb, "  %d barriers (%d tied), comm-wait %v total: %v attributed, %v unattributed\n",
		b.Barriers, b.TiedBarriers, round(b.TotalCommWait), round(b.Attributed), round(b.Unattributed))
	fmt.Fprintf(&sb, "  %4s  %12s  %6s  %12s  %8s\n", "rank", "blamed", "share", "self-wait", "fronted")
	for _, w := range b.Workers {
		fmt.Fprintf(&sb, "  %4d  %12v  %5.1f%%  %12v  %8d\n",
			w.Rank, round(w.Blamed), w.BlamedPct, round(w.SelfWait), w.FrontierBarriers)
	}
	return sb.String()
}

// Blame is BlameContext with a background context.
func (p *Profiler) Blame(job workload.Job, it cloud.InstanceType, opt BlameOptions) (*BlameReport, error) {
	return p.BlameContext(context.Background(), job, it, opt)
}

// BlameContext runs one traced synthetic training of job on it and
// attributes every worker's comm-wait to the barrier frontiers
// (trace.Attribute). Unlike the stall measurements, the traced run is
// never memoized or counted in Stats: tracing perturbs nothing (the
// simulation is identical), but the result depends on the straggler
// injection, which is not part of the scenario cache key.
func (p *Profiler) BlameContext(ctx context.Context, job workload.Job, it cloud.InstanceType, opt BlameOptions) (*BlameReport, error) {
	if err := checkFit(job, it); err != nil {
		return nil, err
	}
	count, gpusPer := 1, 0
	if opt.Nodes >= 2 {
		if it.NGPUs%opt.Nodes != 0 {
			return nil, fmt.Errorf("stash: %s has %d GPUs, not divisible across %d nodes", it.Name, it.NGPUs, opt.Nodes)
		}
		count, gpusPer = opt.Nodes, it.NGPUs/opt.Nodes
	}
	straggler := -1
	scale := 1.0
	switch {
	//lint:allow floatcmp 0 and 1 are the explicit no-straggler sentinels, not computed values
	case opt.StragglerScale == 0 || opt.StragglerScale == 1:
		// No straggler.
	case opt.StragglerScale > 1 && !math.IsInf(opt.StragglerScale, 1):
		straggler, scale = opt.StragglerRank, opt.StragglerScale
		if straggler < 0 || straggler >= it.NGPUs {
			return nil, fmt.Errorf("stash: straggler rank %d outside [0,%d)", straggler, it.NGPUs)
		}
	default: // below 1, NaN or +Inf
		return nil, fmt.Errorf("stash: %w: %v is not a finite factor above 1", ErrStragglerScale, opt.StragglerScale)
	}
	rec := trace.New()
	res, err := Simulate(ctx, cloud.NewProvisioner(p.slicePolicy, p.seed), it, count, func(w World) (*train.Result, error) {
		var gpus []*topo.Device
		if gpusPer > 0 {
			for _, m := range w.Topology.Machines {
				gpus = append(gpus, m.GPUs[:gpusPer]...)
			}
		}
		cfg := train.Config{
			Job:               job,
			Topology:          w.Topology,
			GPUs:              gpus,
			Iterations:        p.iterations,
			Warmup:            profileWarmup,
			Synthetic:         true,
			CollectiveOptions: p.collectiveOpts,
			DisableOverlap:    !w.Topology.SupportsAsyncCollectives(),
			Trace:             rec,
			StragglerRank:     straggler,
			StragglerScale:    scale,
		}
		if straggler < 0 {
			cfg.StragglerRank, cfg.StragglerScale = 0, 1
		}
		return train.Run(w.Engine, w.Net, cfg)
	})
	if err != nil {
		return nil, err
	}

	a := rec.Attribute()
	b := &BlameReport{
		Model:          job.Model.Name,
		Instance:       it.Name,
		Batch:          job.BatchPerGPU,
		Nodes:          count,
		WorldSize:      res.WorldSize,
		Iterations:     profileWarmup + p.iterations,
		StragglerRank:  straggler,
		StragglerScale: scale,
		Barriers:       a.Barriers,
		TiedBarriers:   a.TiedBarriers,
		TotalCommWait:  a.TotalCommWait,
		Attributed:     a.Attributed,
		Unattributed:   a.Unattributed,
		Workers:        make([]WorkerBlameRow, len(a.Workers)),
	}
	for i, w := range a.Workers {
		row := WorkerBlameRow{
			Rank:             w.Worker,
			Blamed:           w.Blamed,
			SelfWait:         w.SelfWait,
			FrontierBarriers: w.FrontierCount,
		}
		if a.TotalCommWait > 0 {
			row.BlamedPct = 100 * float64(w.Blamed) / float64(a.TotalCommWait)
		}
		b.Workers[i] = row
	}
	return b, nil
}
