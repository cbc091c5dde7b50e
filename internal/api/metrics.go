package api

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stash/internal/core"
	"stash/internal/experiments"
)

// reqKey labels one request counter: endpoint name and response code.
type reqKey struct {
	endpoint string
	code     int
}

// metrics aggregates the server's counters for /metrics: request
// counts and latency per endpoint, the in-flight gauge, and the
// scenario-scheduler counters of both profiler pools (the server's own
// profile/recommend profiler and the shared experiments profiler).
type metrics struct {
	profiler *core.Profiler
	expCfg   experiments.Config
	jobs     *jobStore

	inflight atomic.Int64

	// auditChecks/auditViolations accumulate the deep health probe's
	// invariant-audit outcomes (GET /healthz?deep=1).
	auditChecks     atomic.Int64
	auditViolations atomic.Int64

	// Blame attribution counters (POST /v1/blame and "blame" jobs):
	// runs completed, barriers attributed across them, and runs where
	// any comm-wait stayed unattributed (should stay 0 — the audit pins
	// attribution lossless when per-rank barrier spans are recorded).
	blameRuns         atomic.Int64
	blameBarriers     atomic.Int64
	blameUnattributed atomic.Int64

	mu       sync.Mutex
	requests map[reqKey]int64
	latSum   map[string]float64
	latCount map[string]int64
}

func newMetrics(p *core.Profiler, expCfg experiments.Config, jobs *jobStore) *metrics {
	return &metrics{
		profiler: p,
		expCfg:   expCfg,
		jobs:     jobs,
		requests: make(map[reqKey]int64),
		latSum:   make(map[string]float64),
		latCount: make(map[string]int64),
	}
}

// observe records one finished request.
func (m *metrics) observe(endpoint string, code int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
	m.latSum[endpoint] += elapsed.Seconds()
	m.latCount[endpoint]++
}

// render emits the Prometheus text exposition format (version 0.0.4).
// Series are sorted by label so scrapes are stable.
func (m *metrics) render() string {
	m.mu.Lock()
	reqKeys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	endpoints := make([]string, 0, len(m.latCount))
	for e := range m.latCount {
		endpoints = append(endpoints, e)
	}
	sort.Strings(endpoints)

	var b strings.Builder
	b.WriteString("# HELP stashd_requests_total Requests served, by endpoint and HTTP status.\n")
	b.WriteString("# TYPE stashd_requests_total counter\n")
	for _, k := range reqKeys {
		fmt.Fprintf(&b, "stashd_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}
	b.WriteString("# HELP stashd_request_duration_seconds Wall-clock request latency.\n")
	b.WriteString("# TYPE stashd_request_duration_seconds summary\n")
	for _, e := range endpoints {
		fmt.Fprintf(&b, "stashd_request_duration_seconds_sum{endpoint=%q} %g\n", e, m.latSum[e])
		fmt.Fprintf(&b, "stashd_request_duration_seconds_count{endpoint=%q} %d\n", e, m.latCount[e])
	}
	m.mu.Unlock()

	b.WriteString("# HELP stashd_inflight_requests Requests currently being served.\n")
	b.WriteString("# TYPE stashd_inflight_requests gauge\n")
	fmt.Fprintf(&b, "stashd_inflight_requests %d\n", m.inflight.Load())

	// Scenario-scheduler counters (core.Profiler.Stats) for both pools:
	// "profile" backs /v1/profile + /v1/recommend, "experiments" is the
	// suite's shared single-flight profiler.
	pools := []struct {
		name  string
		stats core.Stats
	}{
		{"profile", m.profiler.Stats()},
		{"experiments", experiments.SchedulerStats(m.expCfg)},
	}
	b.WriteString("# HELP stashd_scenario_requests_total Scenario requests admitted to the scheduler.\n")
	b.WriteString("# TYPE stashd_scenario_requests_total counter\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "stashd_scenario_requests_total{pool=%q} %d\n", p.name, p.stats.Requests)
	}
	b.WriteString("# HELP stashd_scenarios_simulated_total Scenarios executed on a simulation engine.\n")
	b.WriteString("# TYPE stashd_scenarios_simulated_total counter\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "stashd_scenarios_simulated_total{pool=%q} %d\n", p.name, p.stats.Simulated)
	}
	b.WriteString("# HELP stashd_scenario_cache_hits_total Scenario requests served from the memoized result cache.\n")
	b.WriteString("# TYPE stashd_scenario_cache_hits_total counter\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "stashd_scenario_cache_hits_total{pool=%q} %d\n", p.name, p.stats.CacheHits)
	}
	b.WriteString("# HELP stashd_scenario_singleflight_waits_total Scenario requests that blocked on another request's in-flight simulation.\n")
	b.WriteString("# TYPE stashd_scenario_singleflight_waits_total counter\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "stashd_scenario_singleflight_waits_total{pool=%q} %d\n", p.name, p.stats.Waits)
	}
	b.WriteString("# HELP stashd_scenario_cancelled_total Scenario requests whose context expired before a result.\n")
	b.WriteString("# TYPE stashd_scenario_cancelled_total counter\n")
	for _, p := range pools {
		fmt.Fprintf(&b, "stashd_scenario_cancelled_total{pool=%q} %d\n", p.name, p.stats.Cancelled)
	}
	b.WriteString("# HELP stashd_audit_checks_total Invariant checks evaluated by deep health probes.\n")
	b.WriteString("# TYPE stashd_audit_checks_total counter\n")
	fmt.Fprintf(&b, "stashd_audit_checks_total %d\n", m.auditChecks.Load())
	b.WriteString("# HELP stashd_audit_violations_total Invariant violations reported by deep health probes.\n")
	b.WriteString("# TYPE stashd_audit_violations_total counter\n")
	fmt.Fprintf(&b, "stashd_audit_violations_total %d\n", m.auditViolations.Load())
	b.WriteString("# HELP stashd_blame_runs_total Frontier blame attributions completed (POST /v1/blame and blame jobs).\n")
	b.WriteString("# TYPE stashd_blame_runs_total counter\n")
	fmt.Fprintf(&b, "stashd_blame_runs_total %d\n", m.blameRuns.Load())
	b.WriteString("# HELP stashd_blame_barriers_total All-reduce barriers attributed to a frontier worker, across blame runs.\n")
	b.WriteString("# TYPE stashd_blame_barriers_total counter\n")
	fmt.Fprintf(&b, "stashd_blame_barriers_total %d\n", m.blameBarriers.Load())
	b.WriteString("# HELP stashd_blame_unattributed_runs_total Blame runs where some comm-wait could not be attributed to any barrier frontier.\n")
	b.WriteString("# TYPE stashd_blame_unattributed_runs_total counter\n")
	fmt.Fprintf(&b, "stashd_blame_unattributed_runs_total %d\n", m.blameUnattributed.Load())

	// Per-tenant scenario counters (core.Profiler.TenantStats): the
	// same conservation family as the pool counters above, split by the
	// tenant core.WithTenant attributed. Tenants render sorted.
	tenantPools := []struct {
		name  string
		stats map[string]core.Stats
	}{
		{"profile", m.profiler.TenantStats()},
		{"experiments", experiments.SchedulerTenantStats(m.expCfg)},
	}
	b.WriteString("# HELP stashd_tenant_scenario_requests_total Scenario requests admitted, by tenant.\n")
	b.WriteString("# TYPE stashd_tenant_scenario_requests_total counter\n")
	for _, p := range tenantPools {
		for _, tenant := range sortedKeys(p.stats) {
			fmt.Fprintf(&b, "stashd_tenant_scenario_requests_total{pool=%q,tenant=%q} %d\n",
				p.name, tenant, p.stats[tenant].Requests)
		}
	}
	b.WriteString("# HELP stashd_tenant_scenario_outcomes_total Scenario request outcomes, by tenant (conserves against requests).\n")
	b.WriteString("# TYPE stashd_tenant_scenario_outcomes_total counter\n")
	for _, p := range tenantPools {
		for _, tenant := range sortedKeys(p.stats) {
			s := p.stats[tenant]
			for _, oc := range []struct {
				name string
				n    int64
			}{
				{"cache_hit", s.CacheHits},
				{"cancelled", s.Cancelled},
				{"simulated", s.Simulated},
				{"wait", s.Waits},
			} {
				fmt.Fprintf(&b, "stashd_tenant_scenario_outcomes_total{pool=%q,tenant=%q,outcome=%q} %d\n",
					p.name, tenant, oc.name, oc.n)
			}
		}
	}

	// v2 job store counters (audit.JobCounters): accepted conserves
	// against the five lifecycle states per tenant.
	jc := m.jobs.counters()
	tenants := sortedKeys(jc)
	b.WriteString("# HELP stashd_jobs_accepted_total Jobs admitted past quota and capacity checks, by tenant.\n")
	b.WriteString("# TYPE stashd_jobs_accepted_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "stashd_jobs_accepted_total{tenant=%q} %d\n", t, jc[t].Accepted)
	}
	b.WriteString("# HELP stashd_jobs_rejected_total Job submissions bounced at admission (quota, store full, draining), by tenant.\n")
	b.WriteString("# TYPE stashd_jobs_rejected_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "stashd_jobs_rejected_total{tenant=%q} %d\n", t, jc[t].Rejected)
	}
	b.WriteString("# HELP stashd_jobs_terminal_total Jobs reaching a terminal state, by tenant and outcome.\n")
	b.WriteString("# TYPE stashd_jobs_terminal_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "stashd_jobs_terminal_total{tenant=%q,outcome=\"cancelled\"} %d\n", t, jc[t].Cancelled)
		fmt.Fprintf(&b, "stashd_jobs_terminal_total{tenant=%q,outcome=\"done\"} %d\n", t, jc[t].Done)
		fmt.Fprintf(&b, "stashd_jobs_terminal_total{tenant=%q,outcome=\"failed\"} %d\n", t, jc[t].Failed)
	}
	b.WriteString("# HELP stashd_jobs_queued Jobs waiting in the fair queue, by tenant.\n")
	b.WriteString("# TYPE stashd_jobs_queued gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "stashd_jobs_queued{tenant=%q} %d\n", t, jc[t].Queued)
	}
	b.WriteString("# HELP stashd_jobs_running Jobs executing on the job worker pool, by tenant.\n")
	b.WriteString("# TYPE stashd_jobs_running gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "stashd_jobs_running{tenant=%q} %d\n", t, jc[t].Running)
	}
	b.WriteString("# HELP stashd_job_cells_completed_total Scenario cells completed by jobs, by tenant.\n")
	b.WriteString("# TYPE stashd_job_cells_completed_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "stashd_job_cells_completed_total{tenant=%q} %d\n", t, jc[t].Cells)
	}
	b.WriteString("# HELP stashd_job_store_jobs Jobs currently retained by the store (live + replayable terminal).\n")
	b.WriteString("# TYPE stashd_job_store_jobs gauge\n")
	fmt.Fprintf(&b, "stashd_job_store_jobs %d\n", m.jobs.size())

	return b.String()
}
