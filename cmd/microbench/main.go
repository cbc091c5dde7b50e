// Command microbench runs the paper's §VI micro characterization: it
// sweeps synthetic ResNet-N and VGG-N variants (optionally without batch
// norm or residual connections) and reports how layer count and gradient
// volume drive interconnect and network stalls (Fig 16).
//
// Usage:
//
//	microbench [-iters N] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"stash/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "microbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("microbench", flag.ContinueOnError)
	iters := fs.Int("iters", experiments.DefaultConfig().Iterations, "profiling iterations per scenario")
	seed := fs.Int64("seed", 1, "provisioning seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: %s takes flags only", fs.Arg(0), fs.Name())
	}
	if *iters < 1 {
		return fmt.Errorf("-iters %d: must be at least 1", *iters)
	}
	tables, err := experiments.Fig16(experiments.NewConfig(*iters, *seed, 0))
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
	return nil
}
