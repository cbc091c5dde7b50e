// Command bwtest reproduces the paper's Fig 7 methodology: it measures
// the PCIe bandwidth each GPU of an instance achieves when every GPU
// transfers concurrently (the CUDA bandwidthTest equivalent, §V-A1).
//
// Usage:
//
//	bwtest [-instance p2.16xlarge] [-all]
package main

import (
	"flag"
	"fmt"
	"os"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bwtest:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bwtest", flag.ContinueOnError)
	instance := fs.String("instance", "p2.16xlarge", "instance type to probe")
	all := fs.Bool("all", false, "probe every catalog instance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: %s takes flags only", fs.Arg(0), fs.Name())
	}

	var targets []cloud.InstanceType
	if *all {
		targets = cloud.Catalog()
	} else {
		it, err := cloud.ByName(*instance)
		if err != nil {
			return err
		}
		targets = []cloud.InstanceType{it}
	}

	p := core.New()
	t := report.NewTable("Per-GPU host-to-device bandwidth (all GPUs concurrent)",
		"instance", "GPUs", "per-GPU bandwidth", "aggregate")
	for _, it := range targets {
		probe, err := p.PCIeBandwidthProbe(it)
		if err != nil {
			return err
		}
		var agg float64
		for _, bw := range probe.PerGPU {
			agg += bw
		}
		t.AddRow(it.Name, fmt.Sprintf("%d", it.NGPUs),
			report.GBps(probe.MinPerGPU()), report.GBps(agg))
	}
	fmt.Print(t.String())
	return nil
}
