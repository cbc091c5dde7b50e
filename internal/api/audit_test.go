package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// metricValue extracts one series' value from a Prometheus text body.
func metricValue(t *testing.T, body []byte, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in metrics body:\n%s", series, body)
	return 0
}

// TestHealthzDeep: the deep probe runs the bounded invariant audit and
// reports a clean result with an explicit empty violations list.
func TestHealthzDeep(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getBody(t, ts.URL+"/healthz?deep=1")
	if code != http.StatusOK {
		t.Fatalf("deep healthz = %d, body %s", code, body)
	}
	var hr HealthResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if hr.Status != "ok" || hr.Audit == nil {
		t.Fatalf("deep healthz body: %s", body)
	}
	// A fresh server's count: the bounded audit slice, both pools' live
	// conservation and the job store's two job-counter checks.
	if hr.Audit.Checks != 56 {
		t.Errorf("fresh deep probe evaluated %d checks, want 56", hr.Audit.Checks)
	}
	if !strings.Contains(string(body), `"violations":[]`) {
		t.Errorf("passing probe must render violations as []: %s", body)
	}

	// The probe feeds the audit counters on /metrics.
	_, mb := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, mb, "stashd_audit_checks_total"); got < int64(hr.Audit.Checks) {
		t.Errorf("stashd_audit_checks_total = %d, want >= %d", got, hr.Audit.Checks)
	}
	if got := metricValue(t, mb, "stashd_audit_violations_total"); got != 0 {
		t.Errorf("stashd_audit_violations_total = %d, want 0", got)
	}
}

// TestHealthzDeepByteStable: two servers with the same configuration
// answer the deep probe with identical bytes (the docs/API.md example
// depends on this).
func TestHealthzDeepByteStable(t *testing.T) {
	var bodies []string
	for i := 0; i < 2; i++ {
		_, ts := newTestServer(t)
		_, body := getBody(t, ts.URL+"/healthz?deep=1")
		bodies = append(bodies, string(body))
	}
	if bodies[0] != bodies[1] {
		t.Errorf("deep healthz not byte-stable:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestHealthzDeepTimeout: the deep probe honors the per-request
// deadline like any other endpoint.
func TestHealthzDeepTimeout(t *testing.T) {
	_, ts := newTestServer(t, WithRequestTimeout(time.Nanosecond))
	code, body := getBody(t, ts.URL+"/healthz?deep=1")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deep healthz under dead deadline = %d, body %s", code, body)
	}
	if got := errCode(t, body); got != errTimeout {
		t.Errorf("error code = %q, want %q", got, errTimeout)
	}
}

// TestMetricsExperimentsPoolMonotonicUnderScrape is the metrics-scrape
// regression test: each stashd server owns its experiments pool, so a
// dashboard scraping many servers in one process must neither reset one
// server's experiments-pool counters nor see another server's sweeps —
// not even those of a twin server at the same seed. Run under -race
// this also guards the scrape path against data races with a live
// sweep.
func TestMetricsExperimentsPoolMonotonicUnderScrape(t *testing.T) {
	const series = `stashd_scenarios_simulated_total{pool="experiments"}`
	// The swept server gets a generous deadline: the fig4 sweep is
	// seconds normally but can exceed the default request timeout under
	// -race on a loaded single-core runner, and a 504 here would abort
	// the regression check before it observes anything.
	_, main := newTestServer(t, WithSeed(7100), WithRequestTimeout(5*time.Minute))

	// A twin at main's seed must keep its own, untouched pool.
	_, twin := newTestServer(t, WithSeed(7100))

	// A dozen foreign servers at distinct seeds, scraped concurrently.
	var foreign []*httptest.Server
	for i := int64(0); i < 12; i++ {
		_, ts := newTestServer(t, WithSeed(7200+i))
		foreign = append(foreign, ts)
	}

	// Seed the experiments pool, then confirm the sweep simulated.
	if code, body := getBody(t, main.URL+"/v1/experiments/fig4"); code != http.StatusOK {
		t.Fatalf("experiment run = %d, body %s", code, body)
	}
	_, mb := getBody(t, main.URL+"/metrics")
	before := metricValue(t, mb, series)
	if before == 0 {
		t.Fatal("experiment sweep recorded no simulations in the experiments pool")
	}
	_, tb := getBody(t, twin.URL+"/metrics")
	if got := metricValue(t, tb, series); got != 0 {
		t.Errorf("twin server at main's seed reports %s %d, want 0 (pools shared across servers)", series, got)
	}

	// Scrape everything concurrently while a second sweep runs on main.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(main.URL + "/v1/experiments/fig4")
		if err == nil {
			resp.Body.Close()
		}
	}()
	for round := 0; round < 3; round++ {
		for _, ts := range foreign {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				resp, err := http.Get(url + "/metrics")
				if err == nil {
					resp.Body.Close()
				}
			}(ts.URL)
		}
	}
	wg.Wait()

	_, mb = getBody(t, main.URL+"/metrics")
	if after := metricValue(t, mb, series); after < before {
		t.Errorf("%s regressed %d -> %d after foreign scrapes",
			series, before, after)
	}
}
