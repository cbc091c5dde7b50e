// Package api implements stashd's versioned HTTP surface: the Stash
// profiler, the recommendation engine and all 25 paper artifacts served
// as a JSON request/response API (see docs/API.md for the full
// contract).
//
// The server holds one shared single-flight profiler — the same
// memoized scenario cache the parallel experiment suite uses — so every
// request that needs a scenario another request already simulated gets
// it for free, and concurrent requests for the same scenario run
// exactly one simulation. Because the substrate is a deterministic
// simulator, every /v1 response is byte-stable for a given server
// configuration: two servers with the same flags return identical
// bytes for identical requests, which is what lets docs/API.md embed
// verified example responses.
//
// Operational behavior:
//
//   - every request runs under a per-request timeout (WithRequestTimeout)
//     whose context is threaded through core and experiments, so an
//     expired request stops at the next scenario boundary;
//   - within a request or job, sweeps fan out on core.ForEach's worker
//     pool (WithParallelism); every simulation, whatever asked for it,
//     takes one of the process's GOMAXPROCS simulation slots (package
//     core's CPU budget), so there is no separate request gate;
//   - graceful shutdown is the caller's http.Server.Shutdown, which
//     drains in-flight profiles before returning (cmd/stashd wires it
//     to SIGTERM/SIGINT).
package api

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"stash/internal/audit"
	"stash/internal/core"
	"stash/internal/experiments"
)

// DefaultRequestTimeout bounds one request's simulation work unless
// WithRequestTimeout overrides it.
const DefaultRequestTimeout = 60 * time.Second

// Option configures a Server.
type Option func(*Server)

// WithIterations sets the profiling window used by /v1/profile and
// /v1/recommend (default core.DefaultIterations, matching cmd/stash, so
// API numbers equal CLI numbers).
func WithIterations(n int) Option {
	return func(s *Server) { s.iterations = n }
}

// WithSeed sets the provisioning seed for the server's profiler and
// experiment runs.
func WithSeed(seed int64) Option {
	return func(s *Server) { s.seed = seed }
}

// WithParallelism bounds the per-request worker pools (recommendation
// candidates, experiment grid cells): 0 or negative = GOMAXPROCS,
// 1 = serial (the core.WithParallelism convention).
func WithParallelism(n int) Option {
	return func(s *Server) { s.parallelism = n }
}

// WithRequestTimeout sets the per-request deadline; the context is
// threaded through core/experiments, so the request stops at the next
// scenario boundary and returns 504.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithExperimentIterations sets the profiling window for
// /v1/experiments/{id} (default experiments.DefaultConfig().Iterations,
// matching cmd/characterize, so API tables equal CLI tables).
func WithExperimentIterations(n int) Option {
	return func(s *Server) { s.expIterations = n }
}

// WithJobWorkers sets how many queued v2 jobs progress at once
// (default DefaultJobWorkers). It shapes job turnaround, not CPU use:
// a job's simulations take the same process-wide slots as every /v1
// request's.
func WithJobWorkers(n int) Option {
	return func(s *Server) { s.jobWorkers = n }
}

// WithJobTTL sets how long terminal job results stay replayable before
// they become evictable (default DefaultJobTTL). Eviction is lazy.
func WithJobTTL(d time.Duration) Option {
	return func(s *Server) { s.jobTTL = d }
}

// WithJobStoreMax caps how many jobs the store retains (default
// DefaultJobStoreMax); admissions beyond it evict the oldest terminal
// job, or fail with store_full when every retained job is active.
func WithJobStoreMax(n int) Option {
	return func(s *Server) { s.jobStoreMax = n }
}

// WithTenantQuota caps the server's live (queued + running) v2 jobs
// (default DefaultTenantQuota); admissions beyond it answer 429.
func WithTenantQuota(n int) Option {
	return func(s *Server) { s.tenantQuota = n }
}

// Server is the stashd HTTP service. Create with New, mount with
// Handler; it is safe for concurrent use.
type Server struct {
	iterations    int
	expIterations int
	seed          int64
	parallelism   int
	timeout       time.Duration
	jobWorkers    int
	jobTTL        time.Duration
	jobStoreMax   int
	tenantQuota   int

	profiler  *core.Profiler
	expCfg    experiments.Config
	metrics   *metrics
	jobsStore *jobStore
	mux       *http.ServeMux
}

// New builds a stashd server with the given options.
func New(opts ...Option) *Server {
	s := &Server{
		iterations:    core.DefaultIterations,
		expIterations: experiments.DefaultConfig().Iterations,
		seed:          1,
		timeout:       DefaultRequestTimeout,
		jobWorkers:    DefaultJobWorkers,
		jobTTL:        DefaultJobTTL,
		jobStoreMax:   DefaultJobStoreMax,
		tenantQuota:   DefaultTenantQuota,
	}
	for _, o := range opts {
		o(s)
	}
	if s.timeout <= 0 {
		s.timeout = DefaultRequestTimeout
	}
	s.profiler = core.New(
		core.WithIterations(s.iterations),
		core.WithSeed(s.seed),
		core.WithParallelism(s.parallelism),
	)
	s.expCfg = experiments.NewConfig(s.expIterations, s.seed, s.parallelism)
	s.jobsStore = newJobStore(s.jobWorkers, s.jobTTL, s.jobStoreMax, s.tenantQuota)
	s.metrics = newMetrics(s.profiler, s.expCfg.Pool, s.jobsStore)
	s.jobsStore.start(s.executeJob)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	s.mux.HandleFunc("POST /v1/profile", s.route("profile", s.handleProfile))
	s.mux.HandleFunc("POST /v1/recommend", s.route("recommend", s.handleRecommend))
	s.mux.HandleFunc("POST /v1/blame", s.route("blame", s.handleBlame))
	s.mux.HandleFunc("GET /v1/experiments", s.route("experiments", s.handleExperimentList))
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.route("experiment", s.handleExperimentRun))
	s.mux.HandleFunc("POST /v2/jobs", s.route("job-create", s.handleJobCreate))
	s.mux.HandleFunc("GET /v2/jobs", s.route("job-list", s.handleJobList))
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.route("job-get", s.handleJobGet))
	s.mux.HandleFunc("GET /v2/jobs/{id}/result", s.route("job-result", s.handleJobResult))
	s.mux.HandleFunc("GET /v2/jobs/{id}/events", s.routeStream("job-events", s.handleJobEvents))
	s.mux.HandleFunc("DELETE /v2/jobs/{id}", s.route("job-cancel", s.handleJobCancel))
	return s
}

// Drain gracefully stops the v2 job subsystem: new submissions are
// rejected with 503 draining, queued jobs are cancelled, and running
// jobs get until ctx's deadline to finish before being cancelled too.
// Call before http.Server.Shutdown so in-flight jobs settle while the
// listener still serves status polls and SSE streams.
func (s *Server) Drain(ctx context.Context) {
	s.jobsStore.drain(ctx)
}

// Handler returns the server's root handler: the /v1 API plus /healthz
// and /metrics, with method mismatches answered 405 and unknown paths
// 404 (both as JSON errors). A request carrying the X-Stash-Tenant
// header is a 400: the server has one client scope.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Header[tenantHeader]; ok {
			s.metrics.observe("other", http.StatusBadRequest, 0)
			writeError(w, http.StatusBadRequest, errInvalidRequest,
				tenantHeader+" is not supported: the server has one client scope")
			return
		}
		if _, pattern := s.mux.Handler(r); pattern == "" {
			// ServeMux would render its own text/plain 404/405; keep the
			// error contract JSON instead.
			code, ec := http.StatusNotFound, errNotFound
			if s.pathExists(r) {
				code, ec = http.StatusMethodNotAllowed, errMethodNotAllowed
			}
			s.metrics.observe("other", code, 0)
			writeError(w, code, ec, fmt.Sprintf("no handler for %s %s", r.Method, r.URL.Path))
			return
		}
		// Dispatch through the mux itself so pattern wildcards
		// (PathValue) are populated.
		s.mux.ServeHTTP(w, r)
	})
}

// pathExists reports whether the request path is served under some
// other method (drives 405 vs 404).
func (s *Server) pathExists(r *http.Request) bool {
	for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
		if m == r.Method {
			continue
		}
		probe := r.Clone(r.Context())
		probe.Method = m
		if _, pattern := s.mux.Handler(probe); pattern != "" {
			return true
		}
	}
	return false
}

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Flush forwards to the underlying writer so SSE streams flush frames
// through the metrics wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route wraps a handler with the server's cross-cutting behavior:
// per-request timeout and request/latency metrics.
func (s *Server) route(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //lint:allow wallclock request-latency metric for /metrics, never enters a stall table
		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		h(sw, r.WithContext(ctx))
		//lint:allow wallclock request-latency metric for /metrics, never enters a stall table
		s.metrics.observe(endpoint, sw.status(), time.Since(start))
	}
}

// routeStream wraps a streaming handler (SSE) with metrics but no
// per-request timeout: the stream lives until the job settles or the
// client disconnects.
func (s *Server) routeStream(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //lint:allow wallclock request-latency metric for /metrics, never enters a stall table
		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		h(sw, r)
		//lint:allow wallclock request-latency metric for /metrics, never enters a stall table
		s.metrics.observe(endpoint, sw.status(), time.Since(start))
	}
}

// handleHealthz answers liveness/readiness probes. The plain probe's
// body is static; ?deep=1 additionally runs the bounded invariant audit
// (audit.Quick) under the request's timeout plus a live conservation
// check of both scenario pools, so an orchestrator can distinguish "the
// process accepts connections" from "the profiling stack still computes
// consistent numbers". Both bodies are byte-stable for the docs
// verifier: the audit result carries no timings and the bounded slice
// evaluates a fixed set of checks.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("deep") != "1" {
		writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
		return
	}
	res, err := audit.Quick(r.Context(), audit.Options{
		Seed:        s.seed,
		Parallelism: s.parallelism,
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	// The bounded slice audits a private profiler; the live pools get
	// the mid-flight conservation check (other requests may be running).
	for _, st := range []core.Stats{s.profiler.Stats(), s.expCfg.Pool.Stats()} {
		live := audit.CheckStatsLive(st)
		res.Checks += live.Checks
		res.Violations = append(res.Violations, live.Violations...)
	}
	// The v2 store's job lifecycle counters conserve too.
	jres := audit.CheckJobCounters(s.jobsStore.counters())
	res.Checks += jres.Checks
	res.Violations = append(res.Violations, jres.Violations...)
	s.metrics.auditChecks.Add(int64(res.Checks))
	s.metrics.auditViolations.Add(int64(len(res.Violations)))
	if !res.Ok() {
		writeError(w, http.StatusInternalServerError, errAuditFailed,
			"invariant audit failed: "+strings.Join(res.Strings(), "; "))
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status: "ok",
		Audit:  &AuditSummary{Checks: res.Checks, Violations: []string{}},
	})
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, s.metrics.render())
}

// maxBodyBytes caps a request body; every request DTO is far smaller.
const maxBodyBytes = 1 << 20

// decode parses a request body holding exactly one JSON value into
// dst. Unknown fields and trailing data are 400s, so client typos
// surface instead of being silently ignored; a body over maxBodyBytes
// is a 413. Both carry the invalid_request code.
func decode(w http.ResponseWriter, r *http.Request, dst any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		// The value must be followed by EOF; any further token is
		// trailing data.
		if _, terr := dec.Token(); terr != io.EOF {
			err = cmp.Or(terr, errors.New("trailing data after the JSON value"))
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooLarge):
		return newAPIError(http.StatusRequestEntityTooLarge, errInvalidRequest,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	}
	return newAPIError(http.StatusBadRequest, errInvalidRequest, "invalid JSON body: "+err.Error())
}

// fail maps an error from the profiling stack to the API error
// contract via errToAPI (dto.go).
func (s *Server) fail(w http.ResponseWriter, err error) {
	aerr := errToAPI(err)
	writeJSON(w, aerr.status, aerr.envelope())
}
