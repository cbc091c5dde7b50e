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
//   - heavy endpoints (/v1/profile, /v1/recommend, /v1/blame,
//     /v1/experiments/{id}) pass through a bounded-concurrency gate
//     (WithMaxConcurrent);
//     within a request, sweeps fan out on core.ForEach's worker pool
//     (WithParallelism);
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
	"runtime"
	"sort"
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

// WithMaxConcurrent bounds how many heavy requests (profile, recommend,
// experiment runs) execute simultaneously; excess requests queue until
// a slot frees or their deadline expires (503). Default GOMAXPROCS.
func WithMaxConcurrent(n int) Option {
	return func(s *Server) { s.maxConcurrent = n }
}

// WithExperimentIterations sets the profiling window for
// /v1/experiments/{id} (default experiments.DefaultConfig().Iterations,
// matching cmd/characterize, so API tables equal CLI tables).
func WithExperimentIterations(n int) Option {
	return func(s *Server) { s.expIterations = n }
}

// WithJobWorkers sets the v2 job executor pool size (default
// DefaultJobWorkers). The pool is separate from the v1 concurrency
// gate by design: queued jobs can never starve synchronous calls.
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

// WithTenantQuota caps one tenant's active (queued + running) jobs
// (default DefaultTenantQuota).
func WithTenantQuota(n int) Option {
	return func(s *Server) { s.tenantQuota = n }
}

// WithTenantWeight assigns a fair-queueing weight to a tenant (default
// 1): a weight-3 tenant's jobs dispatch three times as often as a
// weight-1 tenant's while both are backlogged. The scheduler bounds w
// to [1, MaxTenantWeight]; cmd/stashd instead rejects such weights, and
// names that fail CheckTenantName, at startup.
func WithTenantWeight(name string, w int) Option {
	return func(s *Server) {
		if s.tenantWeights == nil {
			s.tenantWeights = make(map[string]int64)
		}
		s.tenantWeights[name] = int64(w)
	}
}

// Server is the stashd HTTP service. Create with New, mount with
// Handler; it is safe for concurrent use.
type Server struct {
	iterations    int
	expIterations int
	seed          int64
	parallelism   int
	timeout       time.Duration
	maxConcurrent int
	jobWorkers    int
	jobTTL        time.Duration
	jobStoreMax   int
	tenantQuota   int
	tenantWeights map[string]int64

	profiler  *core.Profiler
	expCfg    experiments.Config
	sem       chan struct{}
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
		maxConcurrent: runtime.GOMAXPROCS(0),
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
	if s.maxConcurrent < 1 {
		s.maxConcurrent = 1
	}
	s.profiler = core.New(
		core.WithIterations(s.iterations),
		core.WithSeed(s.seed),
		core.WithParallelism(s.parallelism),
	)
	s.expCfg = experiments.Config{
		Iterations:  s.expIterations,
		Seed:        s.seed,
		Parallelism: s.parallelism,
	}
	s.sem = make(chan struct{}, s.maxConcurrent)
	s.jobsStore = newJobStore(s.jobWorkers, s.jobTTL, s.jobStoreMax, s.tenantQuota, s.tenantWeights)
	s.metrics = newMetrics(s.profiler, s.expCfg, s.jobsStore)
	s.jobsStore.start(s.executeJob)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.route("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", false, s.handleMetrics))
	s.mux.HandleFunc("POST /v1/profile", s.route("profile", true, s.handleProfile))
	s.mux.HandleFunc("POST /v1/recommend", s.route("recommend", true, s.handleRecommend))
	s.mux.HandleFunc("POST /v1/blame", s.route("blame", true, s.handleBlame))
	s.mux.HandleFunc("GET /v1/experiments", s.route("experiments", false, s.handleExperimentList))
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.route("experiment", true, s.handleExperimentRun))
	s.mux.HandleFunc("POST /v2/jobs", s.route("job-create", false, s.handleJobCreate))
	s.mux.HandleFunc("GET /v2/jobs", s.route("job-list", false, s.handleJobList))
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.route("job-get", false, s.handleJobGet))
	s.mux.HandleFunc("GET /v2/jobs/{id}/result", s.route("job-result", false, s.handleJobResult))
	s.mux.HandleFunc("GET /v2/jobs/{id}/events", s.routeStream("job-events", s.handleJobEvents))
	s.mux.HandleFunc("DELETE /v2/jobs/{id}", s.route("job-cancel", false, s.handleJobCancel))
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
// 404 (both as JSON errors).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
// per-request timeout, the bounded-concurrency gate for heavy
// endpoints, and request/latency metrics.
func (s *Server) route(endpoint string, heavy bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //lint:allow wallclock request-latency metric for /metrics, never enters a stall table
		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		// Attribute the request's scenario activity to its tenant so the
		// per-tenant conservation counters cover v1 traffic too; an
		// invalid header just leaves the request unattributed here (the
		// v2 handlers reject it).
		if tenant, aerr := tenantOf(r); aerr == nil {
			ctx = core.WithTenant(ctx, tenant)
		}
		r = r.WithContext(ctx)

		if heavy {
			// Prefer a free slot over an expired deadline so a request
			// that could run immediately is never bounced with 503; a
			// dead context then surfaces as 504 from the handler itself.
			acquired := false
			select {
			case s.sem <- struct{}{}:
				acquired = true
			default:
			}
			if !acquired {
				select {
				case s.sem <- struct{}{}:
				case <-ctx.Done():
					writeError(sw, http.StatusServiceUnavailable, errOverloaded,
						"server at max concurrent requests; deadline expired while queued")
					//lint:allow wallclock request-latency metric for /metrics, never enters a stall table
					s.metrics.observe(endpoint, sw.status(), time.Since(start))
					return
				}
			}
			defer func() { <-s.sem }()
		}
		h(sw, r)
		//lint:allow wallclock request-latency metric for /metrics, never enters a stall table
		s.metrics.observe(endpoint, sw.status(), time.Since(start))
	}
}

// routeStream wraps a streaming handler (SSE) with metrics and tenant
// attribution but no per-request timeout and no concurrency gate: the
// stream lives until the job settles or the client disconnects, and it
// must never occupy a slot a simulation could use.
func (s *Server) routeStream(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //lint:allow wallclock request-latency metric for /metrics, never enters a stall table
		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		ctx := r.Context()
		if tenant, aerr := tenantOf(r); aerr == nil {
			ctx = core.WithTenant(ctx, tenant)
		}
		h(sw, r.WithContext(ctx))
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
	for _, st := range []core.Stats{s.profiler.Stats(), experiments.SchedulerStats(s.expCfg)} {
		live := audit.CheckStatsLive(st)
		res.Checks += live.Checks
		res.Violations = append(res.Violations, live.Violations...)
	}
	// Per-tenant conservation, one layer per family: the scenario
	// counters of each pool (mirrored by core.WithTenant) and the job
	// lifecycle counters of the v2 store. A fresh server has no tenants
	// and adds no checks here.
	for _, pool := range []map[string]core.Stats{s.profiler.TenantStats(), experiments.SchedulerTenantStats(s.expCfg)} {
		for _, name := range sortedKeys(pool) {
			live := audit.CheckStatsLive(pool[name])
			res.Checks += live.Checks
			res.Violations = append(res.Violations, live.Violations...)
		}
	}
	jc := s.jobsStore.counters()
	for _, name := range sortedKeys(jc) {
		jres := audit.CheckJobCounters(name, jc[name])
		res.Checks += jres.Checks
		res.Violations = append(res.Violations, jres.Violations...)
	}
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

// sortedKeys returns a string-keyed map's keys in sorted order — the
// repo-wide idiom for deterministic iteration over maps.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
