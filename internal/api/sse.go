package api

import (
	"bytes"
	"fmt"
	"net/http"
)

// SSE event types of GET /v2/jobs/{id}/events. A stream always opens
// with one "status" snapshot; "partial" and "progress" follow as the
// job advances; exactly one terminal event ("result" on done, "error"
// on failed or cancelled) ends the stream, after which the server
// closes the connection.
const (
	sseStatus   = "status"
	sseProgress = "progress"
	ssePartial  = "partial"
	sseResult   = "result"
	sseError    = "error"
)

// sseWriter frames Server-Sent Events onto one response. Event ids are
// a per-connection sequence (1, 2, ...), not a global log position: a
// reconnect replays the job from its current state rather than
// resuming an offset.
type sseWriter struct {
	w    http.ResponseWriter
	f    http.Flusher
	next int
}

// event writes one frame. data must be a single line (the API only
// streams compact JSON); a trailing newline is stripped so stored wire
// bytes can be passed through unchanged.
func (s *sseWriter) event(typ string, data []byte) error {
	s.next++
	_, err := fmt.Fprintf(s.w, "id: %d\nevent: %s\ndata: %s\n\n",
		s.next, typ, bytes.TrimRight(data, "\n"))
	if err == nil {
		s.f.Flush()
	}
	return err
}

// handleJobEvents serves GET /v2/jobs/{id}/events: an SSE stream of
// the job's lifecycle. Progress events are coalesced — a slow consumer
// sees fewer, never out-of-order, events; cells_done/cells_total are
// monotonically non-decreasing across the stream. For a job that is
// already terminal the stream is a deterministic replay (status, every
// partial in order, one progress frame, the terminal event), which is
// what lets docs/API.md pin an SSE transcript byte-for-byte.
//
// The stream runs outside the per-request timeout: it lives until the
// job reaches a terminal state or the client disconnects, whichever
// comes first. Disconnects are observed via the request context; the
// subscription is dropped and the job itself is unaffected.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobsStore.get(id)
	if j == nil {
		writeError(w, http.StatusNotFound, errNotFound, "no job "+id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errInternal, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	sub := s.jobsStore.subscribe(j)
	defer s.jobsStore.unsubscribe(j, sub)

	out := &sseWriter{w: w, f: flusher}
	if err := out.event(sseStatus, encodeJSON(s.jobsStore.status(j))); err != nil {
		return
	}
	sent := 0
	var lastDone, lastTotal int64 = -1, -1
	for {
		v := s.jobsStore.view(j, sent)
		for _, p := range v.partials {
			if err := out.event(ssePartial, encodeJSON(p)); err != nil {
				return
			}
			sent++
		}
		if v.done != lastDone || v.total != lastTotal {
			lastDone, lastTotal = v.done, v.total
			if err := out.event(sseProgress, encodeJSON(JobProgress{CellsDone: v.done, CellsTotal: v.total})); err != nil {
				return
			}
		}
		if terminalState(v.state) {
			if v.state == jobStateDone {
				_ = out.event(sseResult, v.result)
			} else {
				_ = out.event(sseError, encodeJSON(ErrorResponse{Error: *v.errBody}))
			}
			return
		}
		select {
		case <-sub:
		case <-j.doneCh:
		case <-r.Context().Done():
			return
		}
	}
}
