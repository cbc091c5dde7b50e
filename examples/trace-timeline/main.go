// Trace timeline: look inside an epoch that Stash, by design, only
// measures from the outside. Runs a short distributed training window
// with the execution-trace recorder attached, prints the per-kind time
// accounting, and writes a Chrome trace (chrome://tracing / Perfetto)
// of every worker's timeline.
//
//	go run ./examples/trace-timeline [out.json]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/trace"
	"stash/internal/train"
	"stash/internal/workload"
)

func main() {
	out := "trace.json"
	if len(os.Args) > 1 {
		out = os.Args[1]
	}

	model, err := dnn.ResNet(50)
	if err != nil {
		log.Fatal(err)
	}
	job, err := workload.NewJob(model, 32)
	if err != nil {
		log.Fatal(err)
	}
	instance, err := cloud.ByName("p3.16xlarge")
	if err != nil {
		log.Fatal(err)
	}

	recorder := trace.New()
	res, err := core.Simulate(context.Background(), cloud.NewProvisioner(cloud.SliceDegraded, 1), instance, 1, func(w core.World) (*train.Result, error) {
		return train.Run(w.Engine, w.Net, train.Config{
			Job:        job,
			Topology:   w.Topology,
			Iterations: 5,
			Synthetic:  true,
			Trace:      recorder,
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %s: %d iterations in %v (%.0f samples/s)\n\n",
		model.Name, instance.Name, res.Iterations, res.Elapsed, res.SamplesPerSecond)
	fmt.Println("time by activity (all workers):")
	fmt.Print(recorder.Summary())

	busy := recorder.WorkerBusy(0)
	denom := res.Elapsed.Seconds()
	// Backward spans cover only the compute segments between sync
	// points; hooks and blocking comm-waits are recorded as their own
	// non-overlapping kinds, so the kinds sum without double counting.
	fmt.Printf("\nworker 0 breakdown: forward %.0f%%, backward %.0f%%, hooks %.0f%%, comm wait %.0f%%\n",
		100*busy[trace.KindForward].Seconds()/denom,
		100*busy[trace.KindBackward].Seconds()/denom,
		100*busy[trace.KindHook].Seconds()/denom,
		100*busy[trace.KindCommWait].Seconds()/denom)

	raw, err := recorder.ChromeTrace()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d spans to %s -- open it in chrome://tracing or https://ui.perfetto.dev\n",
		recorder.Len(), out)
}
