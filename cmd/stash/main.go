// Command stash profiles one DDL workload on one simulated cloud
// instance type, reporting the four execution stalls the paper defines
// (interconnect, network, CPU/prep, disk/fetch) plus an epoch time and
// cost estimate.
//
// Usage:
//
//	stash -model resnet18 -instance p3.16xlarge [-batch 32] [-nodes 2] [-iters N]
//	stash -blame [-straggler RANK [-straggler-scale F]] -model M -instance I
//	stash -selfcheck [-seed N] [-parallel N]
//
// -blame runs frontier blame attribution instead of the stall
// pipeline: one traced training run where, for every all-reduce
// barrier, the last-arriving worker is charged the comm-wait it caused
// the others — naming the rank responsible for each stall rather than
// just measuring it. -straggler injects a synthetic slow rank
// (-straggler-scale its compute slowdown, default 1.5) to calibrate
// the attribution; the injected rank must come out on top.
//
// -selfcheck runs the cross-layer invariant auditor (internal/audit)
// instead of profiling: physical time orderings, scheduler-counter
// conservation, registry determinism and blame-attribution
// conservation, exiting non-zero on any violation. scripts/ci.sh runs
// it as a gate.
//
// Models: the Table II zoo (alexnet, mobilenet_v2, squeezenet1_1,
// shufflenet_v2, resnet18, resnet50, vgg11, bert-large) plus the §VI-A
// micro-study depths resnet<N> (18/34/50/101/152) and vgg<N>
// (11/13/16/19), resolved by dnn.Resolve as stashd resolves them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"stash/internal/audit"
	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stash:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stash", flag.ContinueOnError)
	modelName := fs.String("model", "resnet18", "model to profile")
	batch := fs.Int("batch", 32, "per-GPU batch size")
	instance := fs.String("instance", "p3.16xlarge", "AWS instance type")
	nodes := fs.Int("nodes", 2, "node count for the network-stall step (0 to skip)")
	iters := fs.Int("iters", core.DefaultIterations, "profiling iterations per step")
	clean := fs.Bool("clean-slice", false, "assume a whole NVLink crossbar (lucky p3.8xlarge tenant)")
	recommend := fs.Bool("recommend", false, "rank every catalog configuration instead of profiling one")
	blame := fs.Bool("blame", false, "run frontier blame attribution instead of the stall pipeline")
	straggler := fs.Int("straggler", -1, "with -blame: inject a synthetic straggler at this rank (-1 = none)")
	stragglerScale := fs.Float64("straggler-scale", core.DefaultStragglerScale, "with -blame -straggler: the straggler's compute slowdown (> 1)")
	deadline := fs.Duration("deadline", 0, "with -recommend: max epoch time")
	budget := fs.Float64("budget", 0, "with -recommend: max epoch cost in USD")
	parallel := fs.Int("parallel", 0, "worker-pool size for -recommend and -selfcheck (0 or negative = GOMAXPROCS, 1 = serial)")
	selfcheck := fs.Bool("selfcheck", false, "run the cross-layer invariant audit and exit (non-zero on violations)")
	seed := fs.Int64("seed", 1, "with -selfcheck: provisioning seed the audit runs at")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: %s takes flags only", fs.Arg(0), fs.Name())
	}
	if *iters < 1 {
		return fmt.Errorf("-iters %d: must be at least 1", *iters)
	}

	if *selfcheck {
		// -iters keeps its own profiling default; the audit only adopts
		// it when set explicitly (invariants hold at any window, so the
		// audit's smaller default is just speed).
		auditIters := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "iters" {
				auditIters = *iters
			}
		})
		return runSelfcheck(auditIters, *seed, *parallel)
	}

	model, err := dnn.Resolve(*modelName)
	if err != nil {
		return err
	}
	it, err := cloud.ByName(*instance)
	if err != nil {
		return err
	}
	job, err := workload.NewJob(model, *batch)
	if err != nil {
		return err
	}

	opts := []core.Option{core.WithIterations(*iters), core.WithParallelism(*parallel)}
	if *clean {
		opts = append(opts, core.WithSlicePolicy(cloud.SliceClean))
	}
	p := core.New(opts...)

	if *recommend {
		return runRecommend(p, job, core.Constraints{
			MaxEpochTime:    *deadline,
			MaxCostPerEpoch: *budget,
		})
	}

	// An explicit -nodes must be a split the network-stall step can
	// run: 0 to skip, or at least 2 nodes sharing the GPUs evenly.
	nodesSet := false
	fs.Visit(func(f *flag.Flag) { nodesSet = nodesSet || f.Name == "nodes" })
	if nodesSet && *nodes != 0 && (*nodes < 2 || it.NGPUs%*nodes != 0) {
		return fmt.Errorf("-nodes %d: must be 0, or at least 2 and a divisor of %s's %d GPUs", *nodes, it.Name, it.NGPUs)
	}

	if *blame {
		// -nodes keeps its network-stall default of 2; a blame run stays
		// on one instance unless the split is requested explicitly.
		blameNodes := 0
		if nodesSet {
			blameNodes = *nodes
		}
		return runBlame(p, job, it, blameNodes, *straggler, *stragglerScale)
	}

	fmt.Printf("profiling %s (batch %d/GPU, %.1fM gradients, %d sync points) on %s (%dx %s)\n\n",
		model.Name, *batch, float64(model.TotalParams())/1e6, model.NumParamLayers(),
		it.Name, it.NGPUs, it.GPU.Name)

	r, err := p.Profile(job, it)
	if err != nil {
		return err
	}
	fmt.Print(r)

	// Profile already reports the 2-node network stall; only re-measure
	// for a different split.
	if nodesSet && *nodes > 2 {
		nw, err := p.NetworkStall(job, it, *nodes)
		if err != nil {
			return err
		}
		fmt.Printf("  %v\n", nw)
	}
	fmt.Printf("  GPU memory utilization: %.1f%%\n", core.MemoryUtilization(job, it))
	return nil
}

// runSelfcheck runs the full invariant audit and reports the outcome;
// any violation is an error, which main turns into a non-zero exit.
func runSelfcheck(iters int, seed int64, parallel int) error {
	res, err := audit.Run(context.Background(), audit.Options{
		Iterations:  iters,
		Seed:        seed,
		Parallelism: parallel,
	})
	if err != nil {
		return err
	}
	fmt.Println(res)
	if !res.Ok() {
		return fmt.Errorf("selfcheck: %d invariant violations", len(res.Violations))
	}
	return nil
}

// runBlame runs one traced training and prints the ranked frontier
// blame table; the output is byte-identical to the "rendered" field of
// stashd's POST /v1/blame for the same workload.
func runBlame(p *core.Profiler, job workload.Job, it cloud.InstanceType, nodes, straggler int, scale float64) error {
	opt := core.BlameOptions{Nodes: nodes, StragglerRank: straggler}
	if straggler >= 0 {
		if scale <= 1 {
			return fmt.Errorf("-straggler-scale must be > 1, got %v", scale)
		}
		opt.StragglerScale = scale
	}
	rep, err := p.Blame(job, it, opt)
	if errors.Is(err, core.ErrStragglerScale) {
		return fmt.Errorf("-straggler-scale %v: %w", scale, err)
	}
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return nil
}

// runRecommend ranks every catalog configuration for the job.
func runRecommend(p *core.Profiler, job workload.Job, cons core.Constraints) error {
	rec, err := p.Recommend(job, cons)
	if err != nil {
		return err
	}
	fmt.Printf("%s (batch %d/GPU): %d feasible configurations\n\n", job.Model.Name, job.BatchPerGPU, len(rec.Candidates))
	for i, c := range rec.Candidates {
		marker := " "
		if i == rec.Fastest {
			marker = "*" // fastest
		}
		notes := ""
		if len(c.Notes) > 0 {
			notes = " (" + strings.Join(c.Notes, "; ") + ")"
		}
		fmt.Printf("%s %2d. %dx %-13s $%6.2f/epoch  %-10v%s\n",
			marker, i+1, c.Nodes, c.Instance, c.Estimate.Cost,
			c.Estimate.Time.Round(time.Second), notes)
	}
	if len(rec.Rejected) > 0 {
		fmt.Println("\nrejected:")
		labels := make([]string, 0, len(rec.Rejected))
		for lbl := range rec.Rejected {
			labels = append(labels, lbl)
		}
		sort.Strings(labels)
		for _, lbl := range labels {
			fmt.Printf("  %-16s %s\n", lbl, rec.Rejected[lbl])
		}
	}
	fmt.Printf("\n%s\n", rec.ModelAdvice)
	return nil
}
