package api

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id   int
	typ  string
	data string
}

// parseSSE splits a full SSE stream into frames.
func parseSSE(t *testing.T, raw string) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, frame := range strings.Split(strings.TrimSuffix(raw, "\n\n"), "\n\n") {
		var ev sseEvent
		for _, line := range strings.Split(frame, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				id, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
				if err != nil {
					t.Fatalf("bad id line %q: %v", line, err)
				}
				ev.id = id
			case strings.HasPrefix(line, "event: "):
				ev.typ = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			default:
				t.Fatalf("unexpected SSE line %q in frame %q", line, frame)
			}
		}
		out = append(out, ev)
	}
	return out
}

// readStream opens the SSE endpoint and reads it to EOF (the server
// closes the stream after the terminal event).
func readStream(t *testing.T, base, id string) (string, []sseEvent) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v2/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("events = %d, body %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return string(raw), parseSSE(t, string(raw))
}

// TestSSETerminalReplay pins the replay contract: streaming a job that
// is already terminal yields a fixed transcript — status, one progress
// frame, the result — and re-reading it is byte-identical.
func TestSSETerminalReplay(t *testing.T) {
	_, ts := newTestServer(t)
	const spec = `{"model":"resnet18","instance":"p3.16xlarge","batch":32}`
	_, v1Body := postJSON(t, ts.URL+"/v1/profile", spec)
	id := submitJob(t, ts.URL, `{"type":"profile","profile":`+spec+`}`)
	waitTerminal(t, ts.URL, id)

	raw, events := readStream(t, ts.URL, id)
	if len(events) != 3 {
		t.Fatalf("replay = %d events, want 3:\n%s", len(events), raw)
	}
	for i, want := range []string{sseStatus, sseProgress, sseResult} {
		if events[i].typ != want || events[i].id != i+1 {
			t.Errorf("event %d = id %d type %s, want id %d type %s",
				i, events[i].id, events[i].typ, i+1, want)
		}
	}
	var js JobStatus
	if err := json.Unmarshal([]byte(events[0].data), &js); err != nil || js.State != jobStateDone {
		t.Errorf("status event = %s (err %v)", events[0].data, err)
	}
	if events[1].data != `{"cells_done":4,"cells_total":4}` {
		t.Errorf("progress event = %s", events[1].data)
	}
	if events[2].data != strings.TrimSuffix(string(v1Body), "\n") {
		t.Errorf("result event differs from v1 body:\nsse: %s\nv1:  %s", events[2].data, v1Body)
	}

	again, _ := readStream(t, ts.URL, id)
	if again != raw {
		t.Errorf("replay not byte-stable:\nfirst:  %q\nsecond: %q", raw, again)
	}
}

// TestSSEExperimentsPartials: a sweep's stream carries one partial per
// artifact, byte-identical to the v1 endpoint, before the final result.
func TestSSEExperimentsPartials(t *testing.T) {
	_, ts := newTestServer(t)
	ids := []string{"table2", "fig5"}
	v1 := make(map[string]string, len(ids))
	for _, id := range ids {
		_, b := getBody(t, ts.URL+"/v1/experiments/"+id)
		v1[id] = strings.TrimSuffix(string(b), "\n")
	}
	jobID := submitJob(t, ts.URL, `{"type":"experiments","experiments":{"ids":["table2","fig5"]}}`)
	waitTerminal(t, ts.URL, jobID)

	_, events := readStream(t, ts.URL, jobID)
	var partials []jobPartial
	for _, ev := range events {
		if ev.typ != ssePartial {
			continue
		}
		var p jobPartial
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("partial %s: %v", ev.data, err)
		}
		partials = append(partials, p)
	}
	if len(partials) != 2 {
		t.Fatalf("stream carried %d partials, want 2", len(partials))
	}
	for i, id := range ids {
		if partials[i].Label != id || string(partials[i].Data) != v1[id] {
			t.Errorf("partial %d = %s, want label %s with the v1 body", i, partials[i].Label, id)
		}
	}
	if last := events[len(events)-1]; last.typ != sseResult {
		t.Errorf("stream ends with %s, want result", last.typ)
	}
}

// TestSSELiveProgressMonotonic follows a job live: ids are sequential,
// progress counters never decrease, and the stream ends at the terminal
// event.
func TestSSELiveProgressMonotonic(t *testing.T) {
	_, ts := newTestServer(t)
	id := submitJob(t, ts.URL, `{"type":"experiments","experiments":{"ids":["table2","fig5","fig6"]}}`)
	_, events := readStream(t, ts.URL, id) // opened while running: follows live
	if events[0].typ != sseStatus {
		t.Fatalf("stream opens with %s, want status", events[0].typ)
	}
	var lastDone, lastTotal int64 = -1, -1
	sawProgress := false
	for i, ev := range events {
		if ev.id != i+1 {
			t.Errorf("event %d has id %d, want %d", i, ev.id, i+1)
		}
		if ev.typ != sseProgress {
			continue
		}
		sawProgress = true
		var p JobProgress
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress %s: %v", ev.data, err)
		}
		if p.CellsDone < lastDone || p.CellsTotal < lastTotal {
			t.Errorf("progress regressed: %d/%d after %d/%d", p.CellsDone, p.CellsTotal, lastDone, lastTotal)
		}
		if p.CellsDone > p.CellsTotal {
			t.Errorf("done %d exceeds total %d", p.CellsDone, p.CellsTotal)
		}
		lastDone, lastTotal = p.CellsDone, p.CellsTotal
	}
	if !sawProgress {
		t.Error("no progress events on a live stream")
	}
	if last := events[len(events)-1]; last.typ != sseResult {
		t.Errorf("stream ends with %s, want result", last.typ)
	}
}

// TestSSEClientDisconnect: dropping the stream mid-job detaches the
// subscriber and leaves the job to finish normally.
func TestSSEClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t)
	id := submitJob(t, ts.URL, `{"type":"experiments","experiments":{"ids":["table2","fig5","fig6","fig7"]}}`)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	// Read the first frame, then hang up.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The handler notices and unsubscribes; the job is unaffected.
	j := s.jobsStore.get(id)
	if j == nil {
		t.Fatal("job vanished")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.jobsStore.mu.Lock()
		n := len(j.subs)
		s.jobsStore.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers still attached after disconnect", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if js := waitTerminal(t, ts.URL, id); js.State != jobStateDone {
		t.Errorf("job after disconnect = %s, error %+v", js.State, js.Error)
	}
}

// TestSSEDuringDrain: a stream on a queued job ends with the cancelled
// error event when drain sweeps the queue.
func TestSSEDuringDrain(t *testing.T) {
	s, ts := newTestServer(t, WithJobWorkers(1))
	held := holdFirstJob(s)
	running := submitJob(t, ts.URL, `{"type":"experiments","experiments":{}}`)
	<-held // occupies the only worker, so the next job stays queued
	queued := submitJob(t, ts.URL, `{"type":"profile","profile":{"model":"resnet18","instance":"p3.2xlarge"}}`)

	type streamResult struct {
		events []sseEvent
	}
	done := make(chan streamResult, 1)
	go func() {
		_, events := readStream(t, ts.URL, queued)
		done <- streamResult{events}
	}()
	// Give the stream a moment to attach, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j := s.jobsStore.get(queued)
		s.jobsStore.mu.Lock()
		n := len(j.subs)
		s.jobsStore.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never subscribed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Drain(ctx)

	r := <-done
	last := r.events[len(r.events)-1]
	if last.typ != sseError {
		t.Fatalf("drained stream ends with %s, want error", last.typ)
	}
	var e ErrorResponse
	if err := json.Unmarshal([]byte(last.data), &e); err != nil || e.Error.Code != errCancelled {
		t.Errorf("terminal error event = %s (err %v)", last.data, err)
	}
	_ = running
}
