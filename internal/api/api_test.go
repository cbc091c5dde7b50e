package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a server with a small profiling window (fast)
// and returns it with an httptest frontend.
func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	s := New(append([]Option{WithIterations(4), WithExperimentIterations(4)}, opts...)...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

// errCode extracts the error envelope's code, failing on malformed
// bodies.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return e.Error.Code
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d, body %s", code, body)
	}
	if got := strings.TrimSpace(string(body)); got != `{"status":"ok"}` {
		t.Errorf("healthz body = %s", got)
	}
}

func TestProfileSuccess(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/profile",
		`{"model":"resnet18","instance":"p3.16xlarge","batch":32}`)
	if code != http.StatusOK {
		t.Fatalf("profile = %d, body %s", code, body)
	}
	var resp ProfileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Model != "resnet18" || resp.Instance != "p3.16xlarge" || resp.Batch != 32 {
		t.Errorf("identity fields wrong: %+v", resp)
	}
	if resp.Interconnect.StallPct <= 0 || resp.Interconnect.AllGPUSeconds <= resp.Interconnect.SingleGPUSeconds {
		t.Errorf("interconnect stall not positive: %+v", resp.Interconnect)
	}
	if resp.Network == nil || resp.Network.Nodes != 2 {
		t.Errorf("expected 2-node network stall, got %+v", resp.Network)
	}
	if resp.Epoch.CostUSD <= 0 || resp.Epoch.TimeSeconds <= 0 {
		t.Errorf("epoch estimate empty: %+v", resp.Epoch)
	}
	if !strings.Contains(resp.Rendered, "I/C stall") {
		t.Errorf("rendered report missing: %q", resp.Rendered)
	}
}

func TestProfileDefaultsBatch(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet18","instance":"p3.2xlarge"}`)
	if code != http.StatusOK {
		t.Fatalf("profile = %d, body %s", code, body)
	}
	var resp ProfileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Batch != 32 {
		t.Errorf("default batch = %d, want 32", resp.Batch)
	}
	if resp.Network != nil {
		t.Errorf("single-GPU instance should have no network stall, got %+v", resp.Network)
	}
}

func TestProfileCustomNodes(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/profile",
		`{"model":"resnet18","instance":"p3.16xlarge","nodes":4}`)
	if code != http.StatusOK {
		t.Fatalf("profile = %d, body %s", code, body)
	}
	var resp ProfileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Network == nil || resp.Network.Nodes != 4 {
		t.Errorf("expected 4-node network stall, got %+v", resp.Network)
	}
}

func TestProfileValidationErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
		wantCode   int
		wantErr    string
	}{
		{"missing model", `{"instance":"p3.2xlarge"}`, http.StatusBadRequest, errInvalidRequest},
		{"missing instance", `{"model":"resnet18"}`, http.StatusBadRequest, errInvalidRequest},
		{"unknown model", `{"model":"nope","instance":"p3.2xlarge"}`, http.StatusBadRequest, errInvalidRequest},
		{"unknown instance", `{"model":"resnet18","instance":"m5.large"}`, http.StatusBadRequest, errInvalidRequest},
		{"negative batch", `{"model":"resnet18","instance":"p3.2xlarge","batch":-1}`, http.StatusBadRequest, errInvalidRequest},
		{"bad nodes", `{"model":"resnet18","instance":"p3.16xlarge","nodes":3}`, http.StatusBadRequest, errInvalidRequest},
		{"unknown field", `{"model":"resnet18","instance":"p3.2xlarge","iters":9}`, http.StatusBadRequest, errInvalidRequest},
		{"malformed JSON", `{"model":`, http.StatusBadRequest, errInvalidRequest},
		{"trailing value", `{"model":"resnet18","instance":"p3.2xlarge"}{}`, http.StatusBadRequest, errInvalidRequest},
		{"trailing garbage", `{"model":"resnet18","instance":"p3.2xlarge"} x`, http.StatusBadRequest, errInvalidRequest},
		{"trailing brace", `{"model":"resnet18","instance":"p3.2xlarge"}}`, http.StatusBadRequest, errInvalidRequest},
		{"oversized body", `{"model":"resnet18","instance":"p3.2xlarge","batch":` + strings.Repeat(" ", maxBodyBytes) + `32}`,
			http.StatusRequestEntityTooLarge, errInvalidRequest},
		{"oom", `{"model":"bert-large","instance":"p3.2xlarge","batch":64}`, http.StatusUnprocessableEntity, errOOM},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+"/v1/profile", c.body)
			if code != c.wantCode {
				t.Fatalf("status = %d, want %d (body %s)", code, c.wantCode, body)
			}
			if got := errCode(t, body); got != c.wantErr {
				t.Errorf("error code = %q, want %q", got, c.wantErr)
			}
		})
	}
}

func TestMethodNotAllowedAndNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getBody(t, ts.URL+"/v1/profile")
	if code != http.StatusMethodNotAllowed || errCode(t, body) != errMethodNotAllowed {
		t.Errorf("GET /v1/profile = %d %s", code, body)
	}
	code, body = getBody(t, ts.URL+"/v1/nothing")
	if code != http.StatusNotFound || errCode(t, body) != errNotFound {
		t.Errorf("GET /v1/nothing = %d %s", code, body)
	}
}

func TestRecommendSuccess(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/recommend",
		`{"model":"resnet18","batch":32,"families":["P3"],"max_epoch_seconds":14400}`)
	if code != http.StatusOK {
		t.Fatalf("recommend = %d, body %s", code, body)
	}
	var resp RecommendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(resp.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(resp.Candidates); i++ {
		if resp.Candidates[i].Epoch.CostUSD < resp.Candidates[i-1].Epoch.CostUSD {
			t.Errorf("candidates not cheapest-first at %d", i)
		}
	}
	if resp.Fastest < 0 || resp.Fastest >= len(resp.Candidates) {
		t.Errorf("fastest index %d out of range", resp.Fastest)
	}
	if resp.ModelAdvice == "" {
		t.Error("missing model advice")
	}
	for _, c := range resp.Candidates {
		if c.Epoch.Instance[:2] != "p3" {
			t.Errorf("family filter leaked %s", c.Instance)
		}
	}
}

func TestRecommendInfeasible(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/recommend",
		`{"model":"resnet18","max_cost_per_epoch":0.000001}`)
	if code != http.StatusUnprocessableEntity || errCode(t, body) != errInfeasible {
		t.Errorf("infeasible = %d %s", code, body)
	}
}

func TestRecommendValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"missing model":       `{}`,
		"negative constraint": `{"model":"resnet18","max_epoch_seconds":-5}`,
		"unknown field":       `{"model":"resnet18","budget":3}`,
	} {
		code, b := postJSON(t, ts.URL+"/v1/recommend", body)
		if code != http.StatusBadRequest || errCode(t, b) != errInvalidRequest {
			t.Errorf("%s: got %d %s", name, code, b)
		}
	}
}

func TestExperimentList(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getBody(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	var resp ExperimentListResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(resp.Experiments) != 26 {
		t.Errorf("registry size = %d, want 26", len(resp.Experiments))
	}
	if resp.Experiments[0].ID != "table1" {
		t.Errorf("first experiment = %q, want table1 (paper order)", resp.Experiments[0].ID)
	}
}

func TestExperimentRun(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getBody(t, ts.URL+"/v1/experiments/table2")
	if code != http.StatusOK {
		t.Fatalf("run = %d, body %s", code, body)
	}
	var resp ExperimentResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.ID != "table2" || len(resp.Tables) == 0 {
		t.Fatalf("bad response: %+v", resp)
	}
	var tbl struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	raw, _ := json.Marshal(resp.Tables[0])
	if err := json.Unmarshal(raw, &tbl); err != nil {
		t.Fatalf("table decode: %v", err)
	}
	if len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
		t.Errorf("empty table: %+v", tbl)
	}
}

func TestExperimentUnknown(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getBody(t, ts.URL+"/v1/experiments/fig99")
	if code != http.StatusNotFound || errCode(t, body) != errNotFound {
		t.Errorf("unknown experiment = %d %s", code, body)
	}
}

// TestRequestTimeout pins the 504 path: with a nanosecond deadline the
// context expires before the first scenario, and the pipeline's
// cancellation check surfaces it as a timeout error.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, WithRequestTimeout(time.Nanosecond))
	code, body := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet18","instance":"p3.2xlarge"}`)
	if code != http.StatusGatewayTimeout || errCode(t, body) != errTimeout {
		t.Errorf("timeout = %d %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/recommend", `{"model":"resnet18"}`)
	if code != http.StatusGatewayTimeout || errCode(t, body) != errTimeout {
		t.Errorf("recommend timeout = %d %s", code, body)
	}
	code, body = getBody(t, ts.URL+"/v1/experiments/fig5")
	if code != http.StatusGatewayTimeout || errCode(t, body) != errTimeout {
		t.Errorf("experiment timeout = %d %s", code, body)
	}
}

// TestOverloadedQueue pins the 503 path deterministically: the single
// concurrency slot is taken, and the request arrives with an already
// expired context, so the gate's select can only take the Done branch.
func TestOverloadedQueue(t *testing.T) {
	s := New(WithIterations(4), WithMaxConcurrent(1))
	s.sem <- struct{}{} // occupy the only heavy slot
	defer func() { <-s.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/profile",
		strings.NewReader(`{"model":"resnet18","instance":"p3.2xlarge"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request = %d, body %s", rec.Code, rec.Body)
	}
	if got := errCode(t, rec.Body.Bytes()); got != errOverloaded {
		t.Errorf("error code = %q, want %q", got, errOverloaded)
	}
}

// TestConcurrentProfilesDeterministic hammers one workload from many
// goroutines: every response must be byte-identical (the single-flight
// cache shares one simulation), and repeats must not re-simulate.
func TestConcurrentProfilesDeterministic(t *testing.T) {
	s, ts := newTestServer(t)
	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/profile", "application/json",
				strings.NewReader(`{"model":"resnet18","instance":"p3.8xlarge"}`))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	simulated := s.profiler.Stats().Simulated
	// A repeat of the same workload must be served fully from cache.
	code, _ := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet18","instance":"p3.8xlarge"}`)
	if code != http.StatusOK {
		t.Fatalf("repeat = %d", code)
	}
	if got := s.profiler.Stats().Simulated; got != simulated {
		t.Errorf("repeat re-simulated: %d -> %d scenarios", simulated, got)
	}
}

func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet18","instance":"p3.2xlarge"}`); code != http.StatusOK {
		t.Fatalf("profile = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/experiments/table1"); code != http.StatusOK {
		t.Fatalf("experiment = %d", code)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`stashd_requests_total{endpoint="profile",code="200"} 1`,
		`stashd_requests_total{endpoint="experiment",code="200"} 1`,
		`stashd_request_duration_seconds_count{endpoint="profile"} 1`,
		`stashd_inflight_requests`,
		`stashd_scenarios_simulated_total{pool="profile"}`,
		`stashd_scenario_cache_hits_total{pool="experiments"}`,
		`stashd_scenario_singleflight_waits_total{pool="profile"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestGracefulShutdownDrainsInflight starts a real http.Server, parks a
// profile request in flight (observed via the inflight gauge), then
// calls Shutdown: the request must complete with 200 and Shutdown must
// return only after it drained.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	s := New(WithIterations(600)) // large window => the profile takes a while
	hs := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = hs.Serve(ln) }()
	url := fmt.Sprintf("http://%s/v1/profile", ln.Addr())

	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(url, "application/json",
			strings.NewReader(`{"model":"vgg11","instance":"p3.16xlarge"}`))
		if err != nil {
			done <- result{0, err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, nil}
	}()

	// Wait until the request is actually in flight before shutting down.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Errorf("in-flight request = %d, want 200", r.code)
	}
}
