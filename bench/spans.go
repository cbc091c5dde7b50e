package main

import (
	"sync"
	"time"
)

// span is one interval the benchmark observed at its own call boundary
// into the program: a pass, an experiment, a render, a request, or a
// phase of a job's life. Parent 0 marks a root; spans of one request or
// job share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced passes run.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// reserve allocates an id for a span whose children finish before it
// does; set fills it in.
func (t *tracer) reserve(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req})
	return id
}

// set fills in the interval of a reserved span.
func (t *tracer) set(id int, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start, t.spans[id-1].End = start.UnixNano(), end.UnixNano()
}

// adopt appends spans recorded by a child process, renumbering them and
// hanging the child's roots under parent.
func (t *tracer) adopt(parent int, child []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Samples  map[string]int64 `json:"cpu_samples_by_layer"`
	Spans    []span           `json:"spans"`
}
