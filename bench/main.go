// Command stashbench is the repository's end-to-end and per-layer
// benchmark. Every timed pass runs in a fresh child process (this binary
// re-executed), so each pass pays the cold cost a new `characterize` run
// or a newly started stashd pays.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload suite-cold --seed 1 --seconds 30 --trace 0
//
// run.sh builds the binary under .bench_build/ and passes its arguments
// through. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md
// for the workloads, the metrics and what each one should move.
//
// Dependencies. The benchmark reaches the program only through
// experiments.RunMany, Experiment.Run, core.New/Profile/Stats,
// audit.CheckStats, report.Table, api.New(...).Handler() and the HTTP
// surface (/healthz, /metrics, /v1/profile, /v1/recommend, /v2/jobs),
// always as the default tenant. It reads none of core.Stats.RemoteHits,
// the stashd_*remote* or stashd_cluster_* series, tenant weights,
// api.WithCluster or sim.Process, so it survives their removal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricSpec is one metric the benchmark emits. BENCHMARK.json lists
// the same names and units; the self-test holds the two equal.
type metricSpec struct {
	Name     string
	Unit     string
	EndToEnd bool
}

// specs are every metric, end-to-end first. Each workload emits every
// end-to-end metric with --trace 0 and every per-layer metric with
// --trace 1; a per-layer metric of a layer a workload does not exercise
// reads 0 (README.md lists which workload feeds which).
var specs = []metricSpec{
	{"setup_s", "s", true},
	{"wall_s", "s", true},
	{"p50_ms", "ms", true},
	{"peak_rss_mb", "MB", true},

	{"cpu_share.sim", "share", false},
	{"cpu_share.simnet", "share", false},
	{"cpu_share.collective", "share", false},
	{"cpu_share.pipeline", "share", false},
	{"cpu_share.train", "share", false},
	{"cpu_share.core", "share", false},
	{"cpu_share.experiments", "share", false},
	{"cpu_share.report", "share", false},
	{"cpu_share.api", "share", false},
	{"cpu_share.model", "share", false},
	{"cpu_share.runtime", "share", false},
	{"cpu_share.stdlib", "share", false},
	{"cpu_share.other", "share", false},
	{"core.simulated", "count", false},
	{"core.cache_hits", "count", false},
	{"core.waits", "count", false},
	{"core.hit_ratio", "ratio", false},
	{"core.cpu_ms_per_scenario", "ms", false},
	{"report.cells", "count", false},
	{"report.render_ms", "ms", false},
	{"experiments.longest_span_s", "s", false},
	{"process.cpu_util", "ratio", false},
	{"api.server_ms.profile", "ms", false},
	{"api.server_ms.recommend", "ms", false},
	{"api.server_ms.job-create", "ms", false},
	{"api.wire_ms", "ms", false},
	{"latency.profile_p99_ms", "ms", false},
	{"latency.recommend_p50_ms", "ms", false},
	{"latency.recommend_p90_ms", "ms", false},
	{"latency.interactive_p50_ms", "ms", false},
	{"latency.turnaround_p50_ms", "ms", false},
	{"latency.turnaround_p90_ms", "ms", false},
	{"load.throughput_rps", "1/s", false},
	{"load.late_p99_ms", "ms", false},
	{"jobs.queue_wait_p50_ms", "ms", false},
	{"jobs.max_active", "count", false},
	{"runtime.alloc_mb", "MB", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_cpu_share", "share", false},
	{"trace.overhead_pct", "%", false},
}

// config is one run's parameters. The workload sizes are fixed in code
// (defaultConfig); only the self-test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root, where the golden output lives
	out      string // scratch directory for child profiles and traces

	setupProbes int      // spawn-to-ready cycles per run, for setup_s
	experiments []string // suite and sweep experiments; nil = the whole registry
	catalogSize int      // combos the stashd workloads draw from; 0 = every fitting combo

	suiteMinPasses   int
	mixRequests      int // requests per pass
	mixReplays       int // warm replays of the sequence per pass
	mixMinPasses     int
	sweepMinPasses   int
	sweepInteractive int // interactive requests per pass, at least
}

func defaultConfig() config {
	return config{
		seed:             1,
		seconds:          30,
		root:             ".",
		out:              ".bench_build",
		setupProbes:      30,
		suiteMinPasses:   3,
		mixRequests:      1200,
		mixReplays:       16,
		mixMinPasses:     1,
		sweepMinPasses:   4,
		sweepInteractive: 250,
	}
}

// passRec is what every pass of every workload records about its child.
type passRec struct {
	wall  float64 // headline seconds
	use   usage
	mem   memStats
	sched schedStats
}

// outcome is a run's raw measurements, from which both metric sets are
// computed.
type outcome struct {
	attempted, failed int
	problems          []string

	setups  []float64 // seconds, spawn to ready
	passes  []passRec // untraced passes
	primary []float64 // ms samples behind p50_ms
	layer   map[string]float64

	tracedWall float64
	samples    map[string]int64 // traced pass CPU samples by layer
}

func newOutcome() *outcome { return &outcome{layer: make(map[string]float64)} }

// tail sets a per-layer percentile metric. A sample too small to
// support the percentile is a failed measurement, not a number: the
// metric reads 0 and the run reports itself incorrect. The workload
// sizes keep real runs clear of this.
func (o *outcome) tail(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		o.fail("%s: %v", name, err)
	}
	o.layer[name] = v
}

// fail records a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 50 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics computes the end-to-end or the per-layer set.
func (o *outcome) metrics(cfg config, trace bool) map[string]metricValue {
	col := func(f func(p passRec) float64) float64 {
		var xs []float64
		for _, p := range o.passes {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	vals := map[string]float64{
		"setup_s":     median(o.setups),
		"wall_s":      col(func(p passRec) float64 { return p.wall }),
		"p50_ms":      median(o.primary),
		"peak_rss_mb": col(func(p passRec) float64 { return p.use.MaxRSS }),

		"core.simulated":  col(func(p passRec) float64 { return float64(p.sched.Simulated) }),
		"core.cache_hits": col(func(p passRec) float64 { return float64(p.sched.Hits) }),
		"core.waits":      col(func(p passRec) float64 { return float64(p.sched.Waits) }),
		"core.hit_ratio": col(func(p passRec) float64 {
			return ratio(float64(p.sched.Hits+p.sched.Waits), float64(p.sched.Requests))
		}),
		"core.cpu_ms_per_scenario": col(func(p passRec) float64 {
			return ratio(ms(p.use.CPU), float64(p.sched.Simulated))
		}),
		"process.cpu_util": col(func(p passRec) float64 {
			return ratio(p.use.CPU.Seconds(), p.use.Elapsed.Seconds()*float64(runtime.NumCPU()))
		}),
		"runtime.alloc_mb":     col(func(p passRec) float64 { return float64(p.mem.TotalAlloc) / 1e6 }),
		"runtime.gc_cycles":    col(func(p passRec) float64 { return float64(p.mem.NumGC) }),
		"runtime.gc_cpu_share": col(func(p passRec) float64 { return p.mem.GCCPUFraction }),
	}
	for k, v := range o.layer {
		vals[k] = v
	}
	var total int64
	for _, n := range o.samples {
		total += n
	}
	for _, l := range layers {
		vals["cpu_share."+l] = ratio(float64(o.samples[l]), float64(total))
	}
	if w := vals["wall_s"]; w > 0 && o.tracedWall > 0 {
		vals["trace.overhead_pct"] = (o.tracedWall - w) / w * 100
	}
	out := make(map[string]metricValue)
	for _, s := range specs {
		if s.EndToEnd != trace {
			out[s.Name] = metricValue{Value: vals[s.Name], Unit: s.Unit}
		}
	}
	return out
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, o *outcome) error{
	"suite-cold":   runSuite,
	"stashd-mix":   runMix,
	"stashd-sweep": runSweep,
}

// run executes one workload and returns its outcome.
func run(cfg config) (*outcome, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want suite-cold, stashd-mix or stashd-sweep)", cfg.workload)
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	o := newOutcome()
	if err := w(cfg, o); err != nil {
		return nil, err
	}
	return o, nil
}

// probeGap is the idle time before each set-up probe. Started back to
// back, a probe rides on the vCPUs and caches its predecessor left awake,
// and the median of 30 such starts moved 31% from run to run; after
// 100 ms of idle it moved 8%. A user starts the program from idle.
const probeGap = 100 * time.Millisecond

// maxPasses caps a run whose passes have become very short.
const maxPasses = 50

// budget decides how many passes a run makes: at least least, then more
// while another pass of the typical length still ends within the run's
// measuring time.
type budget struct {
	deadline time.Time
	least    int
	durs     []float64
}

func newBudget(cfg config, least int) *budget {
	return &budget{deadline: now().Add(time.Duration(cfg.seconds) * time.Second), least: least}
}

// next reports whether to start another pass.
func (b *budget) next() bool {
	if len(b.durs) < b.least {
		return true
	}
	if len(b.durs) >= maxPasses {
		return false
	}
	typical := time.Duration(median(b.durs) * float64(time.Second))
	return !now().Add(typical).After(b.deadline)
}

// done records a finished pass's length.
func (b *budget) done(start time.Time) { b.durs = append(b.durs, now().Sub(start).Seconds()) }

// profilePath is where a traced child writes its CPU profile.
func profilePath(cfg config) string {
	return filepath.Join(cfg.out, "tmp", fmt.Sprintf("cpu-%s-%d.pprof", cfg.workload, os.Getpid()))
}

// addProfile charges a traced child's CPU samples to layers.
func (o *outcome) addProfile(path string) error {
	stacks, err := readProfile(path)
	if err != nil {
		return err
	}
	o.samples = layerCounts(stacks)
	return os.Remove(path)
}

func main() { os.Exit(cli(os.Args[1:])) }

// cli runs one benchmark run, or with -child one child process, and
// returns the exit code.
func cli(args []string) int {
	cfg := defaultConfig()
	var trace int
	var childMode, ids, cpuprofile string
	fs := flag.NewFlagSet("stashbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "suite-cold, stashd-mix or stashd-sweep")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", cfg.seconds, "measuring time per run")
	fs.IntVar(&trace, "trace", 0, "1 adds a profiled pass and prints the per-layer metrics")
	fs.StringVar(&childMode, "child", "", "internal: run as a suite or server child")
	fs.StringVar(&ids, "ids", "", "internal: experiment subset for a suite child")
	fs.StringVar(&cpuprofile, "cpuprofile", "", "internal: CPU profile path for a child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if childMode != "" {
		return childMain(childMode, cfg.seed, ids, cpuprofile, trace == 1)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "stashbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stashbench:", err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "stashbench: FAIL", p)
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics(cfg, cfg.trace),
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stashbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
