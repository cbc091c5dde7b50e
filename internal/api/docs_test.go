package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// docExample is one request a shipped document records as a verified
// example. The request string here is the source of truth the doc's
// `<name>-request` block must match; the live response must match the
// doc's `<name>-response` block.
type docExample struct {
	name       string
	method     string
	path       string
	request    string // empty for GET/DELETE
	wantStatus int

	// doc is the markdown file carrying this example's verify blocks;
	// empty means docs/API.md.
	doc string

	// raw marks a non-JSON response (the SSE transcript): the comparison
	// is trimmed text, and capture writes a .txt file.
	raw bool

	// settle names a job id to poll to a terminal state before issuing
	// the request, so examples observing a job's final state are
	// deterministic.
	settle string

	// hidden examples execute for their side effects on the shared
	// server (advancing the job sequence, freeing workers) but are not
	// documented.
	hidden bool
}

const opsDoc = "../../docs/OPERATIONS.md"

// docExamples drives both docs_test.go (verification) and
// capture_test.go (regeneration). Examples run in order against one
// shared server, so the v2 job ids below are the server's global
// sequence: job-1 is the profile job, job-2/job-3 the sweeps that
// saturate both default workers (which is what keeps job-4 queued until
// its cancel), job-4 the queued job the cancel example removes.
var docExamples = []docExample{
	{name: "healthz", method: http.MethodGet, path: "/healthz", wantStatus: http.StatusOK},
	{name: "healthz-deep", method: http.MethodGet, path: "/healthz?deep=1", wantStatus: http.StatusOK},
	{name: "profile", method: http.MethodPost, path: "/v1/profile",
		request: `{"model":"resnet18","instance":"p3.16xlarge","batch":32}`, wantStatus: http.StatusOK},
	{name: "profile-error", method: http.MethodPost, path: "/v1/profile",
		request: `{"model":"resnet9000","instance":"p3.16xlarge"}`, wantStatus: http.StatusBadRequest},
	{name: "recommend", method: http.MethodPost, path: "/v1/recommend",
		request: `{"model":"vgg11","batch":32,"families":["P3"],"max_epoch_seconds":2400}`, wantStatus: http.StatusOK},
	{name: "blame", method: http.MethodPost, path: "/v1/blame",
		request:    `{"model":"resnet18","instance":"p3.8xlarge","batch":32,"straggler_rank":3,"straggler_scale":1.5}`,
		wantStatus: http.StatusOK},
	{name: "experiments", method: http.MethodGet, path: "/v1/experiments", wantStatus: http.StatusOK},
	{name: "table2", method: http.MethodGet, path: "/v1/experiments/table2", wantStatus: http.StatusOK},

	// v2 jobs: one deterministic lifecycle. The job-1 profile repeats
	// the v1 profile example, so its persisted result replays the exact
	// same bytes — the byte-identity contract, visible in the docs.
	{name: "jobs-create", method: http.MethodPost, path: "/v2/jobs",
		request:    `{"type":"profile","profile":{"model":"resnet18","instance":"p3.16xlarge","batch":32}}`,
		wantStatus: http.StatusAccepted},
	{name: "jobs-status", method: http.MethodGet, path: "/v2/jobs/job-1",
		wantStatus: http.StatusOK, settle: "job-1"},
	{name: "jobs-result", method: http.MethodGet, path: "/v2/jobs/job-1/result", wantStatus: http.StatusOK},
	{name: "jobs-events", method: http.MethodGet, path: "/v2/jobs/job-1/events",
		wantStatus: http.StatusOK, raw: true},
	{name: "jobs-sweep", method: http.MethodPost, path: "/v2/jobs",
		request: `{"type":"experiments","experiments":{}}`, wantStatus: http.StatusAccepted},
	{name: "sweep-saturate", method: http.MethodPost, path: "/v2/jobs",
		request: `{"type":"experiments","experiments":{}}`, wantStatus: http.StatusAccepted, hidden: true},
	{name: "jobs-queued", method: http.MethodPost, path: "/v2/jobs",
		request:    `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`,
		wantStatus: http.StatusAccepted},
	{name: "jobs-cancel", method: http.MethodDelete, path: "/v2/jobs/job-4", wantStatus: http.StatusOK},
	{name: "sweep-cancel", method: http.MethodDelete, path: "/v2/jobs/job-2",
		wantStatus: http.StatusOK, hidden: true},
	{name: "sweep-cancel2", method: http.MethodDelete, path: "/v2/jobs/job-3",
		wantStatus: http.StatusOK, hidden: true},
	{name: "jobs-list", method: http.MethodGet, path: "/v2/jobs?state=done", wantStatus: http.StatusOK},

	// job-5: a blame job repeating the v1 blame example, so its settled
	// result replays the exact v1 bytes (same byte-identity contract as
	// job-1).
	{name: "jobs-blame-create", method: http.MethodPost, path: "/v2/jobs",
		request:    `{"type":"blame","blame":{"model":"resnet18","instance":"p3.8xlarge","batch":32,"straggler_rank":3,"straggler_scale":1.5}}`,
		wantStatus: http.StatusAccepted},
	{name: "jobs-blame-result", method: http.MethodGet, path: "/v2/jobs/job-5/result",
		wantStatus: http.StatusOK, settle: "job-5"},

	// Operator-guide examples live in docs/OPERATIONS.md.
	{name: "ops-health", method: http.MethodGet, path: "/healthz",
		wantStatus: http.StatusOK, doc: opsDoc},
}

var verifyMarker = regexp.MustCompile(`<!--\s*verify:([a-z0-9-]+)\s*-->`)

// parseVerifiedBlocks extracts every `<!-- verify:name -->` marker and
// the fenced code block that follows it from a markdown file.
func parseVerifiedBlocks(t testing.TB, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	blocks := make(map[string]string)
	lines := strings.Split(string(data), "\n")
	for i := 0; i < len(lines); i++ {
		m := verifyMarker.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		name := m[1]
		// Find the fence opening on one of the next few lines.
		j := i + 1
		for j < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[j]), "```") {
			j++
		}
		if j == len(lines) {
			t.Fatalf("%s: verify:%s has no fenced block", path, name)
		}
		var body []string
		for j++; j < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[j]), "```"); j++ {
			body = append(body, lines[j])
		}
		if _, dup := blocks[name]; dup {
			t.Fatalf("%s: duplicate verify:%s", path, name)
		}
		blocks[name] = strings.Join(body, "\n")
		i = j
	}
	return blocks
}

// canonicalJSON reduces a JSON document to a byte-comparable form
// (sorted object keys, no whitespace), so pretty-printing in the docs
// never causes spurious mismatches while any value drift still does.
func canonicalJSON(t *testing.T, s string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(s), &v); err != nil {
		t.Fatalf("invalid JSON %q: %v", s, err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// settleJob polls one job to a terminal state on the shared doc server.
func settleJob(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v2/jobs/" + id)
		if err != nil {
			t.Fatalf("settle %s: %v", id, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("settle %s: status %d, err %v", id, resp.StatusCode, err)
		}
		var js JobStatus
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatalf("settle %s: %v", id, err)
		}
		if terminalState(js.State) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("settle %s: stuck in %s", id, js.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runDocExample performs one example against the shared doc server,
// honoring its settle step, and returns status and body.
func runDocExample(t *testing.T, base string, ex docExample) (int, []byte) {
	t.Helper()
	if ex.settle != "" {
		settleJob(t, base, ex.settle)
	}
	var rd io.Reader
	if ex.request != "" {
		rd = strings.NewReader(ex.request)
	}
	req, err := http.NewRequest(ex.method, base+ex.path, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", ex.method, ex.path, err)
	}
	if ex.request != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", ex.method, ex.path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", ex.method, ex.path, err)
	}
	return resp.StatusCode, body
}

// TestAPIDocExamplesVerified replays every example the shipped docs
// mark with a verify comment against a default server and fails on any
// drift, in either direction: an undocumented example entry, a stale
// documented body, or a verify marker no example exercises. This is
// the "docs can't rot" gate — if the simulator's calibration or the
// wire format changes, regenerate with capture_test.go.
func TestAPIDocExamplesVerified(t *testing.T) {
	docBlocks := map[string]map[string]string{}
	used := map[string]map[string]bool{}
	blocksFor := func(doc string) (map[string]string, map[string]bool) {
		if doc == "" {
			doc = "../../docs/API.md"
		}
		if docBlocks[doc] == nil {
			docBlocks[doc] = parseVerifiedBlocks(t, doc)
			used[doc] = map[string]bool{}
		}
		return docBlocks[doc], used[doc]
	}

	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ex := range docExamples {
		t.Run(ex.name, func(t *testing.T) {
			if ex.hidden {
				if code, body := runDocExample(t, ts.URL, ex); code != ex.wantStatus {
					t.Fatalf("status = %d, want %d (body %s)", code, ex.wantStatus, body)
				}
				return
			}
			blocks, usedHere := blocksFor(ex.doc)
			if ex.request != "" {
				reqBlock, ok := blocks[ex.name+"-request"]
				if !ok {
					t.Fatalf("missing verify:%s-request", ex.name)
				}
				usedHere[ex.name+"-request"] = true
				if canonicalJSON(t, reqBlock) != canonicalJSON(t, ex.request) {
					t.Errorf("documented request drifted:\ndoc:  %s\ntest: %s", reqBlock, ex.request)
				}
			}
			respBlock, ok := blocks[ex.name+"-response"]
			if !ok {
				t.Fatalf("missing verify:%s-response", ex.name)
			}
			usedHere[ex.name+"-response"] = true

			code, body := runDocExample(t, ts.URL, ex)
			if code != ex.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", code, ex.wantStatus, body)
			}
			if ex.raw {
				if got, want := strings.TrimSpace(string(body)), strings.TrimSpace(respBlock); got != want {
					t.Errorf("documented transcript drifted from the live server:\nlive:\n%s\ndoc:\n%s", got, want)
				}
				return
			}
			if got, want := canonicalJSON(t, string(body)), canonicalJSON(t, respBlock); got != want {
				t.Errorf("documented response drifted from the live server:\nlive: %s\ndoc:  %s", got, want)
			}
		})
	}
	for doc, blocks := range docBlocks {
		for name := range blocks {
			if !used[doc][name] {
				t.Errorf("%s: block verify:%s is not exercised by any docExample", doc, name)
			}
		}
	}
}

// TestMetricsDocumented renders /metrics after representative traffic
// and checks that every stashd_ series family it emits is described in
// docs/OPERATIONS.md — a new counter can't ship undocumented.
func TestMetricsDocumented(t *testing.T) {
	opsData, err := os.ReadFile(opsDoc)
	if err != nil {
		t.Fatalf("read %s: %v", opsDoc, err)
	}
	ops := string(opsData)

	_, ts := newTestServer(t)
	if code, _ := postJSON(t, ts.URL+"/v1/profile", `{"model":"resnet18","instance":"p3.2xlarge"}`); code != http.StatusOK {
		t.Fatalf("profile = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/healthz?deep=1"); code != http.StatusOK {
		t.Fatal("deep healthz failed")
	}
	id := submitJob(t, ts.URL, `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)
	waitTerminal(t, ts.URL, id)

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if !strings.Contains(ops, name) {
			t.Errorf("docs/OPERATIONS.md does not document metric %s", name)
		}
	}
}
