package api

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// doJSON issues one request and returns status and body; each header
// is a "Name: value" pair.
func doJSON(t *testing.T, method, url, body string, headers ...string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for _, h := range headers {
		name, value, _ := strings.Cut(h, ": ")
		req.Header.Set(name, value)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

// submitJob posts one job and returns its id, asserting the 202
// contract: the snapshot always reads queued with zeroed progress.
func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	code, b := doJSON(t, http.MethodPost, base+"/v2/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", code, b)
	}
	var js JobStatus
	if err := json.Unmarshal(b, &js); err != nil {
		t.Fatalf("unmarshal 202 body %s: %v", b, err)
	}
	if js.State != jobStateQueued || js.Progress.CellsDone != 0 || js.Progress.CellsTotal != 0 {
		t.Fatalf("202 snapshot not queued/0/0: %+v", js)
	}
	return js.ID
}

// waitTerminal polls the job until it reaches a terminal state.
func waitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		code, b := doJSON(t, http.MethodGet, base+"/v2/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status %s = %d, body %s", id, code, b)
		}
		var js JobStatus
		if err := json.Unmarshal(b, &js); err != nil {
			t.Fatalf("unmarshal status %s: %v", b, err)
		}
		if terminalState(js.State) {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, js.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobProfileByteIdentity is the core v2 contract: a profile job's
// persisted result is byte-identical to the synchronous v1 response for
// the same request.
func TestJobProfileByteIdentity(t *testing.T) {
	_, ts := newTestServer(t)
	const spec = `{"model":"resnet18","instance":"p3.16xlarge","batch":32}`
	v1Code, v1Body := postJSON(t, ts.URL+"/v1/profile", spec)
	if v1Code != http.StatusOK {
		t.Fatalf("v1 profile = %d", v1Code)
	}

	id := submitJob(t, ts.URL, `{"type":"profile","profile":`+spec+`}`)
	js := waitTerminal(t, ts.URL, id)
	if js.State != jobStateDone {
		t.Fatalf("job state = %s, error %+v", js.State, js.Error)
	}
	// 4 measurement stages on an 8-GPU instance: interconnect, data,
	// network, epoch.
	if js.Progress.CellsDone != 4 || js.Progress.CellsTotal != 4 {
		t.Errorf("progress = %d/%d, want 4/4", js.Progress.CellsDone, js.Progress.CellsTotal)
	}

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result = %d, body %s", code, body)
	}
	if string(body) != string(v1Body) {
		t.Errorf("job result differs from v1 response:\njob: %s\nv1:  %s", body, v1Body)
	}
	// Replay is idempotent: fetching again returns the same bytes.
	_, again := doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+id+"/result", "")
	if string(again) != string(body) {
		t.Error("result replay not byte-stable")
	}
}

// TestJobExperimentsSweepByteIdentity runs a two-artifact sweep: each
// settled partial is labelled in request order, and the final result
// wraps responses byte-identical to the synchronous v1 endpoints.
func TestJobExperimentsSweepByteIdentity(t *testing.T) {
	_, ts := newTestServer(t)
	ids := []string{"table2", "fig5"}
	v1 := make(map[string]string, len(ids))
	for _, id := range ids {
		code, b := getBody(t, ts.URL+"/v1/experiments/"+id)
		if code != http.StatusOK {
			t.Fatalf("v1 %s = %d", id, code)
		}
		v1[id] = strings.TrimSuffix(string(b), "\n")
	}

	jobID := submitJob(t, ts.URL, `{"type":"experiments","experiments":{"ids":["table2","fig5"]}}`)
	js := waitTerminal(t, ts.URL, jobID)
	if js.State != jobStateDone {
		t.Fatalf("job state = %s, error %+v", js.State, js.Error)
	}
	if len(js.Partials) != 2 || js.Partials[0] != "table2" || js.Partials[1] != "fig5" {
		t.Errorf("partial labels = %v, want [table2 fig5]", js.Partials)
	}

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+jobID+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	var out struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if len(out.Experiments) != 2 {
		t.Fatalf("result carries %d experiments, want 2", len(out.Experiments))
	}
	for i, id := range ids {
		if string(out.Experiments[i]) != v1[id] {
			t.Errorf("%s result differs from v1:\njob: %s\nv1:  %s", id, out.Experiments[i], v1[id])
		}
	}
}

// TestJobFailureReplaysV1Error pins the failed path: the job persists
// the exact v1 error envelope and replays it with the mapped status.
func TestJobFailureReplaysV1Error(t *testing.T) {
	_, ts := newTestServer(t)
	const spec = `{"model":"bert-large","instance":"p3.2xlarge","batch":64}` // OOM
	v1Code, v1Body := postJSON(t, ts.URL+"/v1/profile", spec)
	if v1Code != http.StatusUnprocessableEntity {
		t.Fatalf("v1 oom = %d", v1Code)
	}

	id := submitJob(t, ts.URL, `{"type":"profile","profile":`+spec+`}`)
	js := waitTerminal(t, ts.URL, id)
	if js.State != jobStateFailed {
		t.Fatalf("job state = %s, want failed", js.State)
	}
	if js.Error == nil || js.Error.Code != errOOM {
		t.Fatalf("job error = %+v, want %s", js.Error, errOOM)
	}
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+id+"/result", "")
	if code != http.StatusUnprocessableEntity || string(body) != string(v1Body) {
		t.Errorf("failed replay = %d %s, want %d %s", code, body, v1Code, v1Body)
	}
}

func TestJobValidation(t *testing.T) {
	s, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"unknown type", `{"type":"sweep"}`},
		{"missing spec", `{"type":"profile"}`},
		{"mismatched spec", `{"type":"profile","recommend":{"model":"resnet18"}}`},
		{"two specs", `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"},"recommend":{"model":"resnet18"}}`},
		{"unknown field priority", `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"},"priority":10}`},
		{"malformed JSON", `{"type":`},
		{"unknown experiment id", `{"type":"experiments","experiments":{"ids":["table1","nope"]}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, b := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", c.body)
			if code != http.StatusBadRequest || errCode(t, b) != errInvalidRequest {
				t.Errorf("got %d %s", code, b)
			}
		})
	}
	t.Run("invalid tenant header", func(t *testing.T) {
		code, b := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
			`{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`, tenantHeader+": acme")
		if code != http.StatusBadRequest || errCode(t, b) != errInvalidRequest {
			t.Errorf("got %d %s", code, b)
		}
	})
	t.Run("bad state filter", func(t *testing.T) {
		code, b := doJSON(t, http.MethodGet, ts.URL+"/v2/jobs?state=paused", "")
		if code != http.StatusBadRequest || errCode(t, b) != errInvalidRequest {
			t.Errorf("got %d %s", code, b)
		}
	})
	// Nothing above was admitted: every rejection happens before the
	// store sees the job.
	if n := s.jobsStore.size(); n != 0 {
		t.Errorf("store holds %d jobs after rejected submissions", n)
	}
}

// TestTenantHeaderRejected: the server has one client scope, so a
// request naming a tenant fails loudly (400) on v1 and v2 alike rather
// than silently sharing jobs with every other client.
func TestTenantHeaderRejected(t *testing.T) {
	s, ts := newTestServer(t)
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/profile", `{"model":"resnet18","instance":"p3.2xlarge"}`},
		{http.MethodGet, "/v2/jobs", ""},
	} {
		code, b := doJSON(t, c.method, ts.URL+c.path, c.body, tenantHeader+": acme")
		if code != http.StatusBadRequest || errCode(t, b) != errInvalidRequest ||
			!strings.Contains(string(b), tenantHeader) {
			t.Errorf("%s %s with %s = %d %s", c.method, c.path, tenantHeader, code, b)
		}
	}
	if st := s.profiler.Stats(); st.Requests != 0 {
		t.Errorf("rejected requests reached the profiler: %v", st)
	}
}

// TestJobQuotaExceeded pins admission: with quota 1 the second
// submission bounces 429 until the live job leaves the server.
func TestJobQuotaExceeded(t *testing.T) {
	s, ts := newTestServer(t, WithTenantQuota(1), WithJobWorkers(1))
	// A held sweep keeps the server's one slot active until cancelled.
	held := holdFirstJob(s)
	sweep := submitJob(t, ts.URL, `{"type":"experiments","experiments":{}}`)
	<-held
	code, b := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
		`{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)
	if code != http.StatusTooManyRequests || errCode(t, b) != errQuotaExceeded {
		t.Fatalf("over-quota submit = %d %s", code, b)
	}

	// The rejection is accounted but outside the lifecycle balance.
	jc := s.jobsStore.counters()
	if jc.Rejected != 1 || jc.Accepted != 1 || jc.Balance() != 0 {
		t.Errorf("counters = %+v", jc)
	}

	doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+sweep, "")
	// After the cancel frees the slot, a submission is admitted again.
	id := submitJob(t, ts.URL, `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)
	waitTerminal(t, ts.URL, id)
}

// TestJobCancel covers both cancellation paths: a queued job leaves the
// queue immediately; a running job is cancelled mid-flight and its
// computed result discarded. Both replay 410 Gone.
func TestJobCancel(t *testing.T) {
	s, ts := newTestServer(t, WithJobWorkers(1))
	held := holdFirstJob(s)
	running := submitJob(t, ts.URL, `{"type":"experiments","experiments":{}}`)
	<-held // occupies the only worker until cancelled
	queued := submitJob(t, ts.URL, `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)

	// Cancel the queued job: synchronously terminal.
	code, b := doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+queued, "")
	var js JobStatus
	if code != http.StatusOK {
		t.Fatalf("cancel queued = %d %s", code, b)
	}
	if err := json.Unmarshal(b, &js); err != nil || js.State != jobStateCancelled {
		t.Fatalf("cancel queued state = %s (err %v)", b, err)
	}
	code, b = doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+queued+"/result", "")
	if code != http.StatusGone || errCode(t, b) != errCancelled {
		t.Errorf("cancelled result = %d %s", code, b)
	}

	// Cancel the running sweep: also synchronously terminal, worker freed.
	code, b = doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+running, "")
	if code != http.StatusOK {
		t.Fatalf("cancel running = %d %s", code, b)
	}
	if err := json.Unmarshal(b, &js); err != nil || js.State != jobStateCancelled {
		t.Fatalf("cancel running state = %s (err %v)", b, err)
	}
	// Cancelling again is a no-op returning the terminal state.
	code, b = doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+running, "")
	if err := json.Unmarshal(b, &js); code != http.StatusOK || err != nil || js.State != jobStateCancelled {
		t.Errorf("re-cancel = %d %s", code, b)
	}
	// Unknown job: 404.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/job-99", ""); code != http.StatusNotFound {
		t.Errorf("cancel unknown = %d", code)
	}

	// The freed worker still serves new jobs.
	id := submitJob(t, ts.URL, `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)
	if js := waitTerminal(t, ts.URL, id); js.State != jobStateDone {
		t.Errorf("post-cancel job = %s", js.State)
	}
}

// TestJobResultNotReady: fetching a non-terminal job's result is 409.
func TestJobResultNotReady(t *testing.T) {
	s, ts := newTestServer(t, WithJobWorkers(1))
	held := holdFirstJob(s)
	running := submitJob(t, ts.URL, `{"type":"experiments","experiments":{}}`)
	<-held
	queued := submitJob(t, ts.URL, `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)
	code, b := doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+queued+"/result", "")
	if code != http.StatusConflict || errCode(t, b) != errJobNotReady {
		t.Errorf("queued result = %d %s", code, b)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+running, "")
	doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+queued, "")
}

// TestJobDispatchFIFO drives dispatchLocked directly (no workers): in
// every case the jobs dispatch in exactly their submission order, with
// a cancelled queued job skipped: a one-class backlog, mixed classes,
// and mixed classes with one job cancelled while queued.
func TestJobDispatchFIFO(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes []string
		cancel  int // index into classes of the job cancelled while queued, or -1
	}{
		{"backlog", []string{
			"profile", "profile", "profile", "profile", "profile", "profile",
		}, -1},
		{"mixed_classes", []string{
			"profile", "profile", "profile", "recommend", "experiments",
		}, -1},
		{"one_class", []string{
			"profile", "profile", "profile", "profile",
		}, -1},
		{"mixed_one_cancelled", []string{
			"experiments", "profile", "recommend", "blame", "experiments", "profile",
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newJobStore(1, time.Minute, 64, 32)
			var want []string
			for i, class := range tc.classes {
				snap, aerr := st.submit(JobCreateRequest{Type: class}, class)
				if aerr != nil {
					t.Fatal(aerr.message)
				}
				if i == tc.cancel {
					if _, aerr := st.cancel(snap.ID); aerr != nil {
						t.Fatal(aerr.message)
					}
					continue
				}
				want = append(want, snap.ID)
			}
			var got []string
			for {
				st.mu.Lock()
				j := st.dispatchLocked()
				st.mu.Unlock()
				if j == nil {
					break
				}
				got = append(got, j.id)
				st.finish(j, []byte("{}\n"), http.StatusOK, nil)
			}
			if g, w := strings.Join(got, " "), strings.Join(want, " "); g != w {
				t.Errorf("dispatch order = %q, want %q", g, w)
			}
		})
	}
}

// TestJobStoreEvictionTTLAndLRU pins both eviction paths at the store
// level: a full store evicts its oldest-finished terminal job to admit
// a new one, refuses when everything is live, and TTL-expired results
// vanish on the next touch.
func TestJobStoreEvictionTTLAndLRU(t *testing.T) {
	st := newJobStore(1, 50*time.Millisecond, 2, 32)
	finishOne := func() string {
		t.Helper()
		snap, aerr := st.submit(JobCreateRequest{Type: "profile"}, "profile")
		if aerr != nil {
			t.Fatal(aerr.message)
		}
		st.mu.Lock()
		j := st.dispatchLocked()
		st.mu.Unlock()
		if j == nil || j.id != snap.ID {
			t.Fatalf("dispatch returned %v, want %s", j, snap.ID)
		}
		st.finish(j, []byte("{}\n"), http.StatusOK, nil)
		return snap.ID
	}
	first := finishOne()
	second := finishOne()
	// Store is at max 2 with two terminal jobs: admitting a third evicts
	// the oldest-finished (first).
	third, aerr := st.submit(JobCreateRequest{Type: "profile"}, "profile")
	if aerr != nil {
		t.Fatal(aerr.message)
	}
	if st.get(first) != nil {
		t.Error("oldest terminal job not LRU-evicted")
	}
	if st.get(second) == nil {
		t.Error("newer terminal job evicted out of order")
	}
	// Now both slots are an active job + a terminal one; cancel nothing:
	// a fourth submission evicts `second`, a fifth finds only live jobs
	// and bounces store_full.
	if _, aerr := st.submit(JobCreateRequest{Type: "profile"}, "profile"); aerr != nil {
		t.Fatalf("fourth submit: %s", aerr.message)
	}
	if _, aerr := st.submit(JobCreateRequest{Type: "profile"}, "profile"); aerr == nil || aerr.code != errStoreFull {
		t.Fatalf("fifth submit should bounce store_full, got %v", aerr)
	}
	// TTL: run the live jobs to terminal, let them expire, and any read
	// path evicts them.
	for {
		st.mu.Lock()
		j := st.dispatchLocked()
		st.mu.Unlock()
		if j == nil {
			break
		}
		st.finish(j, []byte("{}\n"), http.StatusOK, nil)
	}
	time.Sleep(80 * time.Millisecond)
	if got := st.list(""); len(got) != 0 {
		t.Errorf("TTL-expired jobs still listed: %v", got)
	}
	if st.size() != 0 {
		t.Errorf("store retains %d jobs after TTL", st.size())
	}
	_ = third
	// Lifecycle conservation survived all the eviction churn.
	if c := st.counters(); c.Balance() != 0 {
		t.Errorf("jobs leak: %+v", c)
	}
}

// TestJobStoreEvictionRace hammers a tiny store (capacity 4, 1ms TTL)
// from concurrent submitters, readers and cancellers; the race detector
// checks synchronization and the conservation audit checks accounting.
func TestJobStoreEvictionRace(t *testing.T) {
	s, ts := newTestServer(t, WithJobStoreMax(4), WithJobTTL(time.Millisecond), WithTenantQuota(4))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 12; i++ {
				code, b := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
					`{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)
				switch code {
				case http.StatusAccepted:
					var js JobStatus
					if err := json.Unmarshal(b, &js); err != nil {
						t.Errorf("unmarshal: %v", err)
						return
					}
					switch rng.Intn(3) {
					case 0:
						doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+js.ID, "")
					case 1:
						doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+js.ID, "")
					default:
						doJSON(t, http.MethodGet, ts.URL+"/v2/jobs", "")
					}
				case http.StatusTooManyRequests:
					// quota or store_full under pressure: expected.
				default:
					t.Errorf("submit = %d %s", code, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Quiesce: every remaining live job runs or was cancelled.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if c := s.jobsStore.counters(); c.Queued+c.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never quiesced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c := s.jobsStore.counters(); c.Balance() != 0 {
		t.Errorf("jobs leak after churn: %+v", c)
	}
	// The deep health probe agrees, with a fresh server's check count:
	// no check scales with the traffic served.
	code, b := getBody(t, ts.URL+"/healthz?deep=1")
	if code != http.StatusOK || !strings.Contains(string(b), `"checks":56,`) {
		t.Errorf("healthz deep after churn = %d %s", code, b)
	}
}

// TestFullRegistrySweepAcceptance is the acceptance scenario from the
// issue, in one pass over a single full-registry sweep: (1) the SSE
// stream reports monotonic progress and one partial per artifact, (2) a
// synchronous /v1/profile completes while the sweep's simulations take
// slots of the same CPU budget, and (3) every persisted partial is
// byte-identical to the corresponding synchronous /v1/experiments/{id}
// response (fetched afterwards — the shared single-flight cache makes
// those replays, so the comparison costs no second simulation).
func TestFullRegistrySweepAcceptance(t *testing.T) {
	_, ts := newTestServer(t)
	id := submitJob(t, ts.URL, `{"type":"experiments","experiments":{}}`)

	type stream struct {
		events []sseEvent
	}
	streamed := make(chan stream, 1)
	go func() {
		_, events := readStream(t, ts.URL, id)
		streamed <- stream{events}
	}()

	// The sweep is live; a v1 call must answer anyway.
	code, b := doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var before JobStatus
	if err := json.Unmarshal(b, &before); err != nil || terminalState(before.State) {
		t.Fatalf("sweep already terminal before the v1 call: %s (err %v)", b, err)
	}
	code, body := postJSON(t, ts.URL+"/v1/profile", `{"model":"vgg11","instance":"p3.2xlarge"}`)
	if code != http.StatusOK {
		t.Fatalf("v1 profile while the sweep holds the workers = %d, body %s", code, body)
	}

	js := waitTerminal(t, ts.URL, id)
	if js.State != jobStateDone {
		t.Fatalf("sweep = %s, error %+v", js.State, js.Error)
	}

	// SSE stream: monotonic progress, ends with the result event.
	st := <-streamed
	var lastDone, lastTotal int64 = -1, -1
	partials := 0
	for _, ev := range st.events {
		switch ev.typ {
		case ssePartial:
			partials++
		case sseProgress:
			var p JobProgress
			if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
				t.Fatalf("progress %s: %v", ev.data, err)
			}
			if p.CellsDone < lastDone || p.CellsTotal < lastTotal || p.CellsDone > p.CellsTotal {
				t.Errorf("progress not monotonic: %d/%d after %d/%d", p.CellsDone, p.CellsTotal, lastDone, lastTotal)
			}
			lastDone, lastTotal = p.CellsDone, p.CellsTotal
		}
	}
	if partials != len(js.Partials) {
		t.Errorf("stream carried %d partials, status lists %d", partials, len(js.Partials))
	}
	if last := st.events[len(st.events)-1]; last.typ != sseResult {
		t.Errorf("stream ends with %s, want result", last.typ)
	}

	// Byte-identity of the persisted sweep against the synchronous API,
	// artifact by artifact across the whole registry.
	code, resBody := doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	var out struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(resBody, &out); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if len(out.Experiments) != len(js.Partials) || len(out.Experiments) == 0 {
		t.Fatalf("result carries %d experiments, partial labels %d", len(out.Experiments), len(js.Partials))
	}
	for i, label := range js.Partials {
		v1Code, v1Body := getBody(t, ts.URL+"/v1/experiments/"+label)
		if v1Code != http.StatusOK {
			t.Fatalf("v1 %s = %d", label, v1Code)
		}
		if string(out.Experiments[i]) != strings.TrimSuffix(string(v1Body), "\n") {
			t.Errorf("%s: sweep result differs from v1 response", label)
		}
	}
}

// holdFirstJob makes s's job runner keep the first job it dispatches in
// flight until that job's context is cancelled (DELETE or drain), so a
// test can rely on a running job however fast the simulator is and
// whatever the server's scenario caches already hold. Later jobs run
// as usual. The returned channel closes once the first job is held.
func holdFirstJob(s *Server) <-chan struct{} {
	held := make(chan struct{})
	var once sync.Once
	s.jobsStore.mu.Lock()
	s.jobsStore.hold = func(ctx context.Context) {
		first := false
		once.Do(func() { first = true })
		if first {
			close(held)
			<-ctx.Done()
		}
	}
	s.jobsStore.mu.Unlock()
	return held
}

// TestJobDrain: drain rejects new submissions, cancels queued jobs and
// force-cancels running jobs past the deadline; conservation holds.
func TestJobDrain(t *testing.T) {
	s, ts := newTestServer(t, WithJobWorkers(1))
	held := holdFirstJob(s)
	running := submitJob(t, ts.URL, `{"type":"experiments","experiments":{}}`)
	<-held // running, and stays so until drain force-cancels it
	queued := submitJob(t, ts.URL, `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Drain(ctx)

	if js := waitTerminal(t, ts.URL, queued); js.State != jobStateCancelled {
		t.Errorf("queued job after drain = %s", js.State)
	}
	if js := waitTerminal(t, ts.URL, running); js.State != jobStateCancelled {
		t.Errorf("running job after short-deadline drain = %s", js.State)
	}
	code, b := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
		`{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)
	if code != http.StatusServiceUnavailable || errCode(t, b) != errDraining {
		t.Errorf("submit while draining = %d %s", code, b)
	}
	// Drain is idempotent.
	s.Drain(ctx)
	if c := s.jobsStore.counters(); c.Balance() != 0 {
		t.Errorf("jobs leak after drain: %+v", c)
	}
}

// TestJobDrainTTLStartsAtCancel: a running job that drain force-cancels
// after its deadline keeps its full TTL from the cancel itself, so the
// drain wait never shortens how long its result stays replayable.
func TestJobDrainTTLStartsAtCancel(t *testing.T) {
	const ttl = time.Minute
	s, ts := newTestServer(t, WithJobWorkers(1), WithJobTTL(ttl))
	held := holdFirstJob(s)
	id := submitJob(t, ts.URL, `{"type":"experiments","experiments":{}}`)
	<-held

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()
	s.Drain(ctx)

	j := s.jobsStore.get(id)
	if j == nil {
		t.Fatalf("job %s evicted", id)
	}
	s.jobsStore.mu.Lock()
	state, expireAt := j.state, j.expireAt
	s.jobsStore.mu.Unlock()
	if state != jobStateCancelled {
		t.Fatalf("state after drain = %s", state)
	}
	if floor := deadline.Add(ttl); expireAt.Before(floor) {
		t.Errorf("expireAt %v is %v before drain deadline + TTL", expireAt, floor.Sub(expireAt))
	}
}

// TestJobMetrics: the job series render unlabeled from a fresh server
// on, and track one job's lifecycle with conserving values.
func TestJobMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	scrape := func() string {
		t.Helper()
		code, body := getBody(t, ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics = %d", code)
		}
		return string(body)
	}
	check := func(text string, wants []string) {
		t.Helper()
		for _, want := range wants {
			if !strings.Contains(text, want+"\n") {
				t.Errorf("metrics missing %q", want)
			}
		}
		if strings.Contains(text, "tenant") {
			t.Error("metrics still carry a tenant series or label")
		}
	}
	check(scrape(), []string{
		`stashd_jobs_accepted_total 0`,
		`stashd_jobs_rejected_total 0`,
		`stashd_jobs_terminal_total{outcome="done"} 0`,
		`stashd_jobs_queued 0`,
		`stashd_jobs_running 0`,
		`stashd_job_cells_completed_total 0`,
		`stashd_job_store_jobs 0`,
	})
	id := submitJob(t, ts.URL, `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)
	waitTerminal(t, ts.URL, id)
	check(scrape(), []string{
		`stashd_jobs_accepted_total 1`,
		`stashd_jobs_rejected_total 0`,
		`stashd_jobs_terminal_total{outcome="cancelled"} 0`,
		`stashd_jobs_terminal_total{outcome="done"} 1`,
		`stashd_jobs_terminal_total{outcome="failed"} 0`,
		`stashd_jobs_queued 0`,
		`stashd_jobs_running 0`,
		`stashd_job_cells_completed_total 3`,
		`stashd_job_store_jobs 1`,
	})
}
