package stash

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"stash/internal/experiments"
	"stash/internal/report"
)

// benchCfg returns the configuration for bench iteration i with its own
// fresh profiler pool (NewConfig never shares one), so every sample
// simulates every scenario, including under -benchtime=1x -count=N where
// every sample has i == 0.
func benchCfg(i, parallelism int) experiments.Config {
	return experiments.NewConfig(experiments.DefaultConfig().Iterations, int64(i+1), parallelism)
}

// runExperiment executes a registered experiment b.N times and reports
// the total number of regenerated table cells per run. Only the last
// iteration's tables are returned (and retained): keeping all b.N table
// sets alive made the bench's memory footprint grow with N.
func runExperiment(b *testing.B, id string) []*report.Table {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var out []*report.Table
	cells := 0
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchCfg(i, 0))
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		cells = 0
		for _, t := range tables {
			cells += t.NumRows() * len(t.Columns)
		}
		out = tables
	}
	b.ReportMetric(float64(cells), "cells")
	return out
}

// maxPct scans a table column set for the largest "NN.N%" cell.
func maxPct(tables []*report.Table) float64 {
	best := 0.0
	for _, t := range tables {
		for _, row := range t.Rows() {
			for _, cell := range row {
				s, ok := strings.CutSuffix(cell, "%")
				if !ok {
					continue
				}
				if v, err := strconv.ParseFloat(s, 64); err == nil && v > best {
					best = v
				}
			}
		}
	}
	return best
}

func BenchmarkTableI(b *testing.B)  { runExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B) { runExperiment(b, "table2") }

func BenchmarkFig4(b *testing.B) {
	out := runExperiment(b, "fig4")
	b.ReportMetric(maxPct(out), "max-stall-%")
}

func BenchmarkFig5(b *testing.B) {
	out := runExperiment(b, "fig5")
	b.ReportMetric(maxPct(out), "max-stall-%")
}

func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

func BenchmarkFig8(b *testing.B) {
	out := runExperiment(b, "fig8")
	b.ReportMetric(maxPct(out), "max-stall-%")
}

func BenchmarkFig9(b *testing.B) {
	out := runExperiment(b, "fig9")
	b.ReportMetric(maxPct(out), "max-stall-%")
}

func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

func BenchmarkFig11(b *testing.B) {
	out := runExperiment(b, "fig11")
	b.ReportMetric(maxPct(out), "max-stall-%")
}

func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

func BenchmarkFig13(b *testing.B) {
	out := runExperiment(b, "fig13")
	// The headline: network stalls reaching the paper's "up to 500%".
	b.ReportMetric(maxPct(out), "max-nw-stall-%")
}

func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14") }

func BenchmarkFig15(b *testing.B) {
	out := runExperiment(b, "fig15")
	b.ReportMetric(maxPct(out), "max-mem-util-%")
}

func BenchmarkFig16(b *testing.B) {
	out := runExperiment(b, "fig16")
	b.ReportMetric(maxPct(out), "max-stall-%")
}

func BenchmarkLargeModelOnP2(b *testing.B) {
	out := runExperiment(b, "large-on-p2")
	b.ReportMetric(maxPct(out), "max-ic-stall-%")
}

func BenchmarkBERT24xl(b *testing.B) { runExperiment(b, "bert-24xl") }

func BenchmarkPSvsAllreduce(b *testing.B) {
	out := runExperiment(b, "ps-vs-allreduce")
	b.ReportMetric(maxPct(out), "max-ps-stall-%")
}

// Extension benches: the ablations and studies beyond the paper's
// figures (see EXPERIMENTS.md "Extensions").

func BenchmarkAblateOverlap(b *testing.B)     { runExperiment(b, "ablate-overlap") }
func BenchmarkAblateBucketSize(b *testing.B)  { runExperiment(b, "ablate-bucket") }
func BenchmarkAblateCompression(b *testing.B) { runExperiment(b, "ablate-compression") }
func BenchmarkSliceLottery(b *testing.B)      { runExperiment(b, "slice-lottery") }
func BenchmarkMultiEpoch(b *testing.B)        { runExperiment(b, "multi-epoch") }
func BenchmarkP4Preview(b *testing.B)         { runExperiment(b, "p4-preview") }
func BenchmarkNetworkVariance(b *testing.B)   { runExperiment(b, "network-variance") }

// BenchmarkClaims re-verifies every SVIII conclusion and reports how many
// hold.
func BenchmarkClaims(b *testing.B) {
	out := runExperiment(b, "claims")
	holds := 0
	for _, row := range out[0].Rows() {
		if row[3] == "HOLDS" {
			holds++
		}
	}
	b.ReportMetric(float64(holds), "claims-hold")
}

// benchSuite runs the full registry through the parallel scheduler at a
// fixed worker-pool size. Comparing BenchmarkSuiteSerial against
// BenchmarkSuiteParallel measures the wall-clock win of the scenario
// scheduler on the whole evaluation; bench.sh distils their ratio into
// the BENCH_*.json parallel_speedup field. Every scenario simulates on a
// world built for it, and every sample gets a fresh profiler pool
// (benchCfg).
func benchSuite(b *testing.B, parallelism int) {
	b.Helper()
	reg := experiments.Registry()
	cells := 0
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i, parallelism)
		cells = 0
		for _, r := range experiments.RunMany(cfg, reg) {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Experiment.ID, r.Err)
			}
			for _, t := range r.Tables {
				cells += t.NumRows() * len(t.Columns)
			}
		}
	}
	b.ReportMetric(float64(cells), "cells")
}

// BenchmarkSuiteSerial is the full evaluation at Parallelism=1 — the
// pre-scheduler serial path.
func BenchmarkSuiteSerial(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel is the full evaluation at Parallelism=NumCPU.
// Its table output is byte-identical to the serial run
// (TestParallelOutputByteIdentical).
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, runtime.NumCPU()) }
