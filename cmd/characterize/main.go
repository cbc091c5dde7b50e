// Command characterize regenerates the paper's evaluation artifacts
// (Tables I-II, Figs 4-16 and the in-text case studies) on the simulated
// cloud.
//
// Usage:
//
//	characterize [-run id[,id...]] [-iters N] [-seed S] [-parallel N] [-csv] [-list] [-v]
//
// Without -run it executes every experiment in paper order. Experiments
// run concurrently on a worker pool (bounded by -parallel, default
// GOMAXPROCS) sharing the run's own memoized profiler
// (experiments.NewConfig), whose counters -v prints; output is printed
// in paper order and is byte-identical to a -parallel 1 run.
//
// -audit runs the cross-layer invariant auditor over the selected
// experiments (determinism family) at the run's iterations, seed and
// parallelism, instead of printing tables; it exits non-zero on any
// violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"stash/internal/audit"
	"stash/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	ids := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	iters := fs.Int("iters", experiments.DefaultConfig().Iterations, "profiling iterations per scenario")
	seed := fs.Int64("seed", 1, "provisioning seed")
	parallel := fs.Int("parallel", 0, "worker pool size (0 or negative = GOMAXPROCS, 1 = serial)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	doAudit := fs.Bool("audit", false, "audit invariants over the selected experiments instead of printing tables")
	verbose := fs.Bool("v", false, "print scenario-scheduler stats after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: %s takes flags only", fs.Arg(0), fs.Name())
	}
	if *iters < 1 {
		return fmt.Errorf("-iters %d: must be at least 1", *iters)
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var selected []experiments.Experiment
	if *ids == "" {
		selected = experiments.Registry()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	if *doAudit {
		sel := make([]string, len(selected))
		for i, e := range selected {
			sel[i] = e.ID
		}
		res, err := audit.Run(context.Background(), audit.Options{
			Iterations:  *iters,
			Seed:        *seed,
			Parallelism: *parallel,
			Experiments: sel,
		})
		if err != nil {
			return err
		}
		fmt.Println(res)
		if !res.Ok() {
			return fmt.Errorf("audit: %d invariant violations", len(res.Violations))
		}
		return nil
	}

	cfg := experiments.NewConfig(*iters, *seed, *parallel)
	start := time.Now() //lint:allow wallclock CLI wall-time progress line, never enters a stall table
	for _, r := range experiments.RunMany(cfg, selected) {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Experiment.ID, r.Err)
		}
		fmt.Printf("# %s (%s, simulated in %v)\n\n", r.Experiment.Title, r.Experiment.ID, r.Elapsed.Round(time.Millisecond))
		for _, t := range r.Tables {
			if *csv {
				fmt.Println(t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
	}
	if *verbose {
		fmt.Printf("# scheduler: %v (wall %v)\n",
			//lint:allow wallclock verbose-only scheduler wall time, not part of any table
			cfg.Pool.Stats(), time.Since(start).Round(time.Millisecond))
	}
	return nil
}
