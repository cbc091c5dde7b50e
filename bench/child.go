package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"stash/internal/api"
	"stash/internal/audit"
	"stash/internal/core"
	"stash/internal/experiments"
	"stash/internal/report"
)

// memStats is the Go runtime's account of a child's allocation and GC
// work, reported when the child finishes.
type memStats struct {
	TotalAlloc    uint64  `json:"total_alloc"`
	NumGC         uint32  `json:"num_gc"`
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
}

func readMemStats() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{TotalAlloc: m.TotalAlloc, NumGC: m.NumGC, GCCPUFraction: m.GCCPUFraction}
}

// schedStats are the scenario scheduler's counters. The benchmark reads
// only these four outcomes, so it keeps working when the cluster layer
// and its remote-hit counter are deleted.
type schedStats struct {
	Requests  int64 `json:"requests"`
	Simulated int64 `json:"simulated"`
	Hits      int64 `json:"cache_hits"`
	Waits     int64 `json:"waits"`
}

// suiteResult is what one suite pass reports to the parent.
type suiteResult struct {
	SuiteNS   int64             `json:"suite_ns"`
	RenderNS  int64             `json:"render_ns"`
	LongestNS int64             `json:"longest_ns"`
	Digests   map[string]string `json:"digests"`
	Errors    map[string]string `json:"errors,omitempty"`
	Claims    int               `json:"claims_holding"`
	Cells     int               `json:"cells"`
	Sched     schedStats        `json:"sched"`
	Audit     []string          `json:"audit_violations,omitempty"`
	Mem       memStats          `json:"mem"`
	Spans     []span            `json:"spans,omitempty"`
}

// childMain runs a child mode and returns the process exit code.
func childMain(mode string, seed int64, ids, cpuprofile string, trace bool) int {
	var err error
	switch mode {
	case "suite":
		err = suiteChild(seed, ids, cpuprofile, trace)
	case "serve":
		err = serveChild(cpuprofile)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stashbench child:", err)
		return 1
	}
	return 0
}

// selectExperiments returns the registry, or the subset named by ids
// in registry order.
func selectExperiments(ids []string) ([]experiments.Experiment, error) {
	reg := experiments.Registry()
	if len(ids) == 0 {
		return reg, nil
	}
	want := make(map[string]bool)
	for _, id := range ids {
		want[id] = true
	}
	var out []experiments.Experiment
	for _, e := range reg {
		if want[e.ID] {
			out = append(out, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("unknown experiment ids in %v", ids)
	}
	return out, nil
}

// suiteChild is one cold pass of the experiment suite: a fresh
// profiler pool, the selected registry through experiments.RunMany at
// one worker per CPU, then every table rendered as characterize prints
// it.
func suiteChild(seed int64, ids, cpuprofile string, trace bool) error {
	var subset []string
	if ids != "" {
		subset = strings.Split(ids, ",")
	}
	exps, err := selectExperiments(subset)
	if err != nil {
		return err
	}
	par := runtime.NumCPU()
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Parallelism = par
	cfg.Pool = core.New(core.WithIterations(cfg.Iterations), core.WithSeed(seed), core.WithParallelism(par))
	var tr *tracer
	if trace {
		tr = &tracer{}
	}
	runID := tr.reserve(0, "RunMany", "")
	if trace {
		exps = traced(tr, runID, exps)
	}

	in := bufio.NewScanner(os.Stdin)
	fmt.Println("ready")
	if !in.Scan() || in.Text() != "go" {
		return nil // a set-up probe: the parent only timed the start
	}
	stop, err := startProfile(cpuprofile)
	if err != nil {
		return err
	}
	start := now()
	results := experiments.RunMany(cfg, exps)
	ran := now()
	res := suiteResult{Digests: make(map[string]string)}
	renderID := tr.reserve(0, "render", "")
	for _, r := range results {
		if r.Err != nil {
			if res.Errors == nil {
				res.Errors = make(map[string]string)
			}
			res.Errors[r.Experiment.ID] = r.Err.Error()
			continue
		}
		text := render(r.Tables)
		res.Digests[r.Experiment.ID] = digest(text)
		res.Cells += cells(r.Tables)
		if r.Experiment.ID == "claims" {
			res.Claims = claimsHolding(text)
		}
		if ns := int64(r.Elapsed); ns > res.LongestNS {
			res.LongestNS = ns
		}
	}
	end := now()
	tr.set(runID, start, ran)
	tr.set(renderID, ran, end)
	if err := stop(); err != nil {
		return err
	}
	res.SuiteNS, res.RenderNS = int64(end.Sub(start)), int64(end.Sub(ran))
	st := cfg.Pool.Stats()
	res.Sched = schedStats{Requests: st.Requests, Simulated: st.Simulated, Hits: st.CacheHits, Waits: st.Waits}
	res.Audit = audit.CheckStats(st).Strings()
	res.Mem = readMemStats()
	res.Spans = tr.snapshot()
	return json.NewEncoder(os.Stdout).Encode(res)
}

// traced wraps each experiment's Run so the pass records one span per
// experiment, the suite's only boundary below RunMany that the
// benchmark can observe from outside.
func traced(tr *tracer, parent int, exps []experiments.Experiment) []experiments.Experiment {
	out := make([]experiments.Experiment, len(exps))
	for i, e := range exps {
		run := e.Run
		e.Run = func(c experiments.Config) ([]*report.Table, error) {
			start := now()
			tables, err := run(c)
			tr.add(parent, "experiment "+e.ID, e.ID, start, now())
			return tables, err
		}
		out[i] = e
	}
	return out
}

// startProfile starts CPU profiling into path ("" profiles nothing) and
// returns the function that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profile never started; the start error is the one to report
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// serveChild is a freshly started stashd: the default api server on a
// loopback port, serving until the parent closes stdin, then drained
// and shut down. Each "rss" line on stdin is answered with the peak
// resident set so far, in MB.
func serveChild(cpuprofile string) error {
	stop, err := startProfile(cpuprofile)
	if err != nil {
		return err
	}
	srv := api.New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Println("ready", ln.Addr().String())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() { // ends when the parent closes stdin
		if in.Text() == "rss" {
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				return err
			}
			fmt.Println(float64(ru.Maxrss) * 1024 / 1e6) // Linux reports KiB
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Drain(ctx)
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := stop(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(readMemStats())
}
