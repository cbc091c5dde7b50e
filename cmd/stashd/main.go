// Command stashd is the long-running Stash profiling service: the
// profiler, the recommendation engine and all 25 paper artifacts served
// over a versioned JSON API (see docs/API.md for the API contract and
// docs/OPERATIONS.md for the operator guide).
//
// Usage:
//
//	stashd [-addr :8321] [-iters N] [-exp-iters N] [-seed S]
//	       [-parallel N] [-max-concurrent N]
//	       [-request-timeout D] [-drain-timeout D]
//	       [-job-workers N] [-job-ttl D] [-max-jobs N]
//	       [-tenant-quota N] [-tenant-weights name=w,...]
//
// A flag value the server cannot honor as given — a zero pool size or
// quota, a non-positive timeout, a tenant weight outside
// [1, api.MaxTenantWeight] or an invalid tenant name — stops startup
// with an error naming the flag, the value and the reason; no value is
// ever adjusted.
//
// Endpoints:
//
//	POST   /v1/profile              four stalls + epoch cost for one workload
//	POST   /v1/recommend            ranked configurations under constraints
//	GET    /v1/experiments          the paper-artifact registry
//	GET    /v1/experiments/{id}     run one artifact, tables as JSON
//	POST   /v2/jobs                 submit an asynchronous job (202 + id)
//	GET    /v2/jobs                 list the tenant's jobs (?state= filter)
//	GET    /v2/jobs/{id}            job status snapshot with progress
//	GET    /v2/jobs/{id}/result     replay a terminal job's exact result
//	GET    /v2/jobs/{id}/events     SSE progress stream to the terminal event
//	DELETE /v2/jobs/{id}            cancel a queued or running job
//	GET    /healthz                 liveness probe
//	GET    /healthz?deep=1          bounded invariant audit + live pool checks
//	GET    /metrics                 Prometheus text counters
//
// All requests share one single-flight memoized profiler, so repeated
// and concurrent requests for overlapping scenarios simulate each
// distinct scenario exactly once. Jobs are scoped to the tenant named
// by the X-Stash-Tenant header and scheduled by a two-level weighted
// fair queue on a worker pool separate from the v1 concurrency gate.
// On SIGTERM/SIGINT the server rejects new jobs, cancels queued ones,
// gives running jobs and in-flight requests up to -drain-timeout to
// settle, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stash/internal/api"
	"stash/internal/core"
	"stash/internal/experiments"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stashd:", err)
		os.Exit(1)
	}
}

// ConfigError is a flag value stashd refuses to start with.
type ConfigError struct {
	Flag   string // flag name, without the dash
	Value  string // the value as given
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("-%s %q: %s", e.Flag, e.Value, e.Reason)
}

// config holds the parsed flags.
type config struct {
	addr          string
	iters         int
	expIters      int
	seed          int64
	parallel      int
	maxConc       int
	reqTimeout    time.Duration
	drainTimeout  time.Duration
	jobWorkers    int
	jobTTL        time.Duration
	maxJobs       int
	tenantQuota   int
	tenantWeights string
}

// newFlagSet declares every stashd flag, bound to c.
func newFlagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("stashd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8321", "listen address")
	fs.IntVar(&c.iters, "iters", core.DefaultIterations, "profiling iterations per scenario (profile/recommend)")
	fs.IntVar(&c.expIters, "exp-iters", experiments.DefaultConfig().Iterations, "profiling iterations per scenario (experiments)")
	fs.Int64Var(&c.seed, "seed", 1, "provisioning seed")
	fs.IntVar(&c.parallel, "parallel", 0, "per-request worker pool size (0 or negative = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&c.maxConc, "max-concurrent", runtime.GOMAXPROCS(0), "concurrent heavy requests (profile/recommend/experiment)")
	fs.DurationVar(&c.reqTimeout, "request-timeout", api.DefaultRequestTimeout, "per-request deadline")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown drain window")
	fs.IntVar(&c.jobWorkers, "job-workers", api.DefaultJobWorkers, "v2 job executor pool size")
	fs.DurationVar(&c.jobTTL, "job-ttl", api.DefaultJobTTL, "retention window for terminal v2 jobs")
	fs.IntVar(&c.maxJobs, "max-jobs", api.DefaultJobStoreMax, "v2 job store capacity (live + retained terminal jobs)")
	fs.IntVar(&c.tenantQuota, "tenant-quota", api.DefaultTenantQuota, "concurrent live (queued+running) v2 jobs per tenant")
	fs.StringVar(&c.tenantWeights, "tenant-weights", "", "fair-queue tenant weights as name=w,name=w (default weight 1)")
	return fs
}

// check rejects the values the server would otherwise have to adjust.
func (c *config) check() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"iters", c.iters},
		{"exp-iters", c.expIters},
		{"max-concurrent", c.maxConc},
		{"job-workers", c.jobWorkers},
		{"max-jobs", c.maxJobs},
		{"tenant-quota", c.tenantQuota},
	} {
		if f.v < 1 {
			return &ConfigError{Flag: f.name, Value: strconv.Itoa(f.v), Reason: "must be at least 1"}
		}
	}
	if c.reqTimeout <= 0 {
		return &ConfigError{Flag: "request-timeout", Value: c.reqTimeout.String(), Reason: "must be positive"}
	}
	return nil
}

// run starts the service and blocks until the listener fails or ctx is
// cancelled (the signal context in main); it then drains in-flight
// requests before returning.
func run(ctx context.Context, args []string, out io.Writer) error {
	var c config
	if err := newFlagSet(&c).Parse(args); err != nil {
		return err
	}
	if err := c.check(); err != nil {
		return err
	}
	weights, err := parseTenantWeights(c.tenantWeights)
	if err != nil {
		return err
	}

	opts := []api.Option{
		api.WithIterations(c.iters),
		api.WithExperimentIterations(c.expIters),
		api.WithSeed(c.seed),
		api.WithParallelism(c.parallel),
		api.WithMaxConcurrent(c.maxConc),
		api.WithRequestTimeout(c.reqTimeout),
		api.WithJobWorkers(c.jobWorkers),
		api.WithJobTTL(c.jobTTL),
		api.WithJobStoreMax(c.maxJobs),
		api.WithTenantQuota(c.tenantQuota),
	}
	for _, tw := range weights {
		opts = append(opts, api.WithTenantWeight(tw.name, tw.weight))
	}

	srv := api.New(opts...)
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(out, "stashd: listening on %s\n", ln.Addr())

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "stashd: shutting down, draining jobs and in-flight requests")
	//lint:allow ctxflow the serve ctx is already cancelled here; the drain deadline must outlive it
	dctx, cancel := context.WithTimeout(context.Background(), c.drainTimeout)
	defer cancel()
	// Settle jobs while the listener still answers status polls and SSE
	// streams, then stop accepting connections.
	srv.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "stashd: drained, exiting")
	return nil
}

// tenantWeight is one -tenant-weights entry.
type tenantWeight struct {
	name   string
	weight int
}

// parseTenantWeights parses "name=w,name=w" into ordered entries. Every
// name must pass api.CheckTenantName, every weight must lie in
// [1, api.MaxTenantWeight], and no name may repeat.
func parseTenantWeights(s string) ([]tenantWeight, error) {
	if s == "" {
		return nil, nil
	}
	var out []tenantWeight
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		bad := func(reason string) error {
			return &ConfigError{Flag: "tenant-weights", Value: part, Reason: reason}
		}
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, bad("not name=weight")
		}
		if err := api.CheckTenantName(name); err != nil {
			return nil, bad("tenant name: " + err.Error())
		}
		if seen[name] {
			return nil, bad("tenant " + name + " listed twice")
		}
		seen[name] = true
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 || w > api.MaxTenantWeight {
			return nil, bad(fmt.Sprintf("weight must be an integer in [1, %d]", api.MaxTenantWeight))
		}
		out = append(out, tenantWeight{name: name, weight: w})
	}
	return out, nil
}
