package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"stash/internal/audit"
	"stash/internal/core"
	"stash/internal/experiments"
)

// Job states. queued and running are live; done, failed and cancelled
// are terminal (the job's result bytes are frozen and its TTL starts).
const (
	jobStateQueued    = "queued"
	jobStateRunning   = "running"
	jobStateDone      = "done"
	jobStateFailed    = "failed"
	jobStateCancelled = "cancelled"
)

// terminalState reports whether a job state is final.
func terminalState(s string) bool {
	return s == jobStateDone || s == jobStateFailed || s == jobStateCancelled
}

const (
	// DefaultJobWorkers is how many queued jobs progress at once. It is
	// deliberately fixed (not GOMAXPROCS-derived) so a server's
	// dispatch behavior is identical on every machine. It sets job
	// turnaround, not CPU use: a job's simulations take the same
	// process-wide slots as every /v1 request's (package core's budget).
	DefaultJobWorkers = 2

	// DefaultJobTTL is how long a terminal job's result is retained for
	// replay before it becomes evictable.
	DefaultJobTTL = 15 * time.Minute

	// DefaultJobStoreMax caps how many jobs (live + terminal) the store
	// retains; beyond it the oldest terminal job is evicted per
	// admission, and admission fails with store_full when every
	// retained job is still active.
	DefaultJobStoreMax = 256

	// DefaultTenantQuota caps the server's live (queued + running)
	// jobs; admissions beyond it answer 429 quota_exceeded.
	DefaultTenantQuota = 16
)

// tenantHeader is a per-client scoping header the server does not
// honour: stashd has one client scope, so Handler rejects any request
// that carries it (400) rather than silently sharing jobs a client
// expected to be isolated from.
const tenantHeader = "X-Stash-Tenant"

// jobPartial is one settled partial result: for experiments jobs, one
// artifact's response, byte-identical to GET /v1/experiments/{id}.
type jobPartial struct {
	Label string          `json:"label"`
	Data  json.RawMessage `json:"data"`
}

// job is one asynchronous unit of work. Identity fields are immutable
// after submit; cellsDone/cellsTotal are atomics fed by the core
// progress hook; everything else is guarded by the store mutex, which
// is what makes every observable transition and every snapshot exact
// (the conservation audit holds at any instant, not just quiescence).
type job struct {
	id    string
	class string
	req   JobCreateRequest

	cellsDone  atomic.Int64
	cellsTotal atomic.Int64

	// Guarded by jobStore.mu.
	state        string
	errBody      *ErrorBody
	result       []byte // wire bytes replayed by GET .../result
	resultStatus int
	partials     []jobPartial
	runCtx       context.Context
	cancel       context.CancelFunc
	doneCh       chan struct{} // closed on the terminal transition
	doneSeq      int64         // terminal order, drives LRU eviction
	expireAt     time.Time
	subs         []chan struct{} // SSE wakeups, coalesced cap-1 channels
}

// jobStore is the v2 job subsystem: admission (a live-job quota, a
// bounded store with TTL + LRU eviction of terminal jobs), one FIFO
// queue in submission order, a fixed worker pool, cancellation and
// drain. One mutex guards all state transitions and snapshots.
type jobStore struct {
	workers int
	ttl     time.Duration
	maxJobs int
	quota   int

	exec   func(*job)
	wakeCh chan struct{}
	stopCh chan struct{}

	mu       sync.Mutex
	draining bool
	nextSeq  int64
	doneSeq  int64
	jobs     map[string]*job
	order    []*job // submission order (evicted jobs removed); the FIFO queue
	// tally is the job accounting; updating it under mu with every
	// transition keeps its lifecycle balance exact at every snapshot.
	tally audit.JobCounters

	// hold, when set, runs on a dispatched job's context before the job
	// executes. Tests use it to keep a job in flight until it is
	// cancelled, however fast the simulator and however warm its caches.
	hold func(context.Context)
}

func newJobStore(workers int, ttl time.Duration, maxJobs, quota int) *jobStore {
	if workers < 1 {
		workers = DefaultJobWorkers
	}
	if maxJobs < 1 {
		maxJobs = 1
	}
	if quota < 1 {
		quota = 1
	}
	return &jobStore{
		workers: workers,
		ttl:     ttl,
		maxJobs: maxJobs,
		quota:   quota,
		wakeCh:  make(chan struct{}, workers),
		stopCh:  make(chan struct{}),
		jobs:    make(map[string]*job),
	}
}

// start launches the worker pool; exec runs one dispatched job to its
// terminal state.
func (st *jobStore) start(exec func(*job)) {
	st.exec = exec
	for i := 0; i < st.workers; i++ {
		go st.worker()
	}
}

func (st *jobStore) worker() {
	for {
		st.mu.Lock()
		j := st.dispatchLocked()
		draining, hold := st.draining, st.hold
		st.mu.Unlock()
		if j == nil {
			if draining {
				return
			}
			select {
			case <-st.wakeCh:
			case <-st.stopCh:
				return
			}
			continue
		}
		st.notify(j) // queued -> running is an observable transition
		if hold != nil {
			hold(j.runCtx)
		}
		st.exec(j)
	}
}

// wakeWorkers nudges idle workers after an enqueue. The channel holds
// one token per worker, so dropping a send is only possible when every
// worker already has a pending wakeup; workers drain the queue in a loop,
// so no job is stranded either way.
func (st *jobStore) wakeWorkers() {
	select {
	case st.wakeCh <- struct{}{}:
	default:
	}
}

// notifyAll delivers coalescing wakeups to SSE subscribers. Sends are
// non-blocking: each subscriber channel holds one pending token and a
// slow stream simply sees several changes on its next iteration.
func notifyAll(subs []chan struct{}) {
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// notify wakes j's subscribers after an observable change.
func (st *jobStore) notify(j *job) {
	st.mu.Lock()
	subs := append([]chan struct{}(nil), j.subs...)
	st.mu.Unlock()
	notifyAll(subs)
}

// submit admits one job: drain and quota checks, capacity eviction,
// then enqueue at the tail of the FIFO. The returned JobStatus is
// snapshotted inside the same critical section that enqueues, so a 202
// body always reads "queued" with zeroed progress — byte-stable no
// matter how fast a worker picks the job up.
func (st *jobStore) submit(req JobCreateRequest, class string) (JobStatus, *apiError) {
	now := time.Now() //lint:allow wallclock job-store TTL/eviction deadlines, never enters a stall table
	st.mu.Lock()
	if st.draining {
		st.tally.Rejected++
		st.mu.Unlock()
		return JobStatus{}, newAPIError(http.StatusServiceUnavailable, errDraining,
			"server is draining; not accepting new jobs")
	}
	st.evictExpiredLocked(now)
	if active := st.tally.Queued + st.tally.Running; active >= int64(st.quota) {
		st.tally.Rejected++
		st.mu.Unlock()
		return JobStatus{}, newAPIError(http.StatusTooManyRequests, errQuotaExceeded,
			fmt.Sprintf("server has %d active jobs (quota %d)", active, st.quota))
	}
	if len(st.jobs) >= st.maxJobs && !st.evictOneLocked() {
		st.tally.Rejected++
		st.mu.Unlock()
		return JobStatus{}, newAPIError(http.StatusTooManyRequests, errStoreFull,
			fmt.Sprintf("job store holds %d active jobs (max %d)", len(st.jobs), st.maxJobs))
	}
	st.nextSeq++
	j := &job{
		id:     fmt.Sprintf("job-%d", st.nextSeq),
		class:  class,
		req:    req,
		state:  jobStateQueued,
		doneCh: make(chan struct{}),
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j)
	st.tally.Accepted++
	st.tally.Queued++
	snap := st.statusLocked(j)
	st.mu.Unlock()
	st.wakeWorkers()
	return snap, nil
}

// dispatchLocked takes the oldest queued job and transitions it
// queued -> running. Dispatch order is submission order, so a given
// submission history always dispatches the same way regardless of
// goroutine scheduling.
func (st *jobStore) dispatchLocked() *job {
	var j *job
	for _, q := range st.order {
		if q.state == jobStateQueued {
			j = q
			break
		}
	}
	if j == nil {
		return nil
	}
	j.state = jobStateRunning
	j.runCtx, j.cancel = context.WithCancel(context.Background())
	st.tally.Queued--
	st.tally.Running++
	return j
}

// finish records a running job's terminal result. If the job was
// cancelled while running, DELETE already took the terminal transition
// and the computed result is discarded.
func (st *jobStore) finish(j *job, result []byte, status int, errBody *ErrorBody) {
	now := time.Now() //lint:allow wallclock job-store TTL deadline, never enters a stall table
	st.mu.Lock()
	if j.state != jobStateRunning {
		st.mu.Unlock()
		return
	}
	st.tally.Running--
	if errBody != nil {
		j.state = jobStateFailed
		e := *errBody
		j.errBody = &e
		st.tally.Failed++
	} else {
		j.state = jobStateDone
		st.tally.Done++
	}
	j.result, j.resultStatus = result, status
	st.doneSeq++
	j.doneSeq = st.doneSeq
	j.expireAt = now.Add(st.ttl)
	close(j.doneCh)
	subs := append([]chan struct{}(nil), j.subs...)
	st.mu.Unlock()
	notifyAll(subs)
}

// cancelLocked transitions a non-terminal job to cancelled: a queued
// job is skipped by dispatch from now on; a running job is marked terminal
// here and now (its executor's context is cancelled by the caller via
// the returned func, and the executor discards whatever it computes).
// Terminal jobs are untouched. Returns the context cancel func to
// invoke after unlock (nil unless the job was running) and the
// subscriber channels to notify.
func (st *jobStore) cancelLocked(j *job, now time.Time) (context.CancelFunc, []chan struct{}) {
	var fn context.CancelFunc
	switch j.state {
	case jobStateQueued:
		st.tally.Queued--
	case jobStateRunning:
		fn = j.cancel
		st.tally.Running--
	default:
		return nil, nil
	}
	j.state = jobStateCancelled
	j.errBody = &ErrorBody{Code: errCancelled, Message: "job " + j.id + " was cancelled"}
	j.result = encodeJSON(ErrorResponse{Error: *j.errBody})
	j.resultStatus = http.StatusGone
	st.tally.Cancelled++
	st.doneSeq++
	j.doneSeq = st.doneSeq
	j.expireAt = now.Add(st.ttl)
	close(j.doneCh)
	return fn, append([]chan struct{}(nil), j.subs...)
}

// cancel is DELETE /v2/jobs/{id}: cancel a job and return its status.
// Cancelling a terminal job is a no-op that returns the current state.
func (st *jobStore) cancel(id string) (JobStatus, *apiError) {
	now := time.Now() //lint:allow wallclock job-store TTL deadline, never enters a stall table
	st.mu.Lock()
	j := st.jobs[id]
	if j == nil {
		st.mu.Unlock()
		return JobStatus{}, newAPIError(http.StatusNotFound, errNotFound, "no job "+id)
	}
	fn, subs := st.cancelLocked(j, now)
	snap := st.statusLocked(j)
	st.mu.Unlock()
	if fn != nil {
		fn()
	}
	notifyAll(subs)
	return snap, nil
}

// progress is the core.WithProgress hook of one job: cells feed the
// job's atomics and the store's informational cell counter, then
// subscribers get a coalesced wakeup.
func (st *jobStore) progress(j *job, done, total int) {
	if done != 0 {
		j.cellsDone.Add(int64(done))
	}
	if total != 0 {
		j.cellsTotal.Add(int64(total))
	}
	st.mu.Lock()
	if done != 0 {
		st.tally.Cells += int64(done)
	}
	subs := append([]chan struct{}(nil), j.subs...)
	st.mu.Unlock()
	notifyAll(subs)
}

// addPartial appends one settled partial result (already wire bytes).
func (st *jobStore) addPartial(j *job, label string, data []byte) {
	p := jobPartial{Label: label, Data: json.RawMessage(bytes.TrimRight(data, "\n"))}
	st.mu.Lock()
	j.partials = append(j.partials, p)
	subs := append([]chan struct{}(nil), j.subs...)
	st.mu.Unlock()
	notifyAll(subs)
}

// evictExpiredLocked drops terminal jobs past their TTL. Eviction is
// lazy — it runs on admissions and reads, not on a timer — so a quiet
// server holds results a little longer than the TTL, never less.
func (st *jobStore) evictExpiredLocked(now time.Time) {
	kept := st.order[:0]
	for _, j := range st.order {
		if terminalState(j.state) && !j.expireAt.After(now) {
			delete(st.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	st.order = kept
}

// evictOneLocked frees one slot by dropping the oldest-finished
// terminal job; false when every retained job is still active.
func (st *jobStore) evictOneLocked() bool {
	var victim *job
	for _, j := range st.order {
		if !terminalState(j.state) {
			continue
		}
		if victim == nil || j.doneSeq < victim.doneSeq {
			victim = j
		}
	}
	if victim == nil {
		return false
	}
	delete(st.jobs, victim.id)
	for i, j := range st.order {
		if j == victim {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
	return true
}

// statusLocked snapshots one job as its wire resource.
func (st *jobStore) statusLocked(j *job) JobStatus {
	done := j.cellsDone.Load()
	total := j.cellsTotal.Load()
	s := JobStatus{
		ID:       j.id,
		Type:     j.class,
		State:    j.state,
		Progress: JobProgress{CellsDone: done, CellsTotal: total},
	}
	if len(j.partials) > 0 {
		labels := make([]string, len(j.partials))
		for i, p := range j.partials {
			labels[i] = p.Label
		}
		s.Partials = labels
	}
	if j.errBody != nil {
		e := *j.errBody
		s.Error = &e
	}
	return s
}

// status snapshots one job under the store lock.
func (st *jobStore) status(j *job) JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.statusLocked(j)
}

// get resolves a job by id; nil when it is unknown or evicted.
func (st *jobStore) get(id string) *job {
	now := time.Now() //lint:allow wallclock job-store TTL eviction on the read path, never enters a stall table
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictExpiredLocked(now)
	return st.jobs[id]
}

// list snapshots the retained jobs in submission order, optionally
// filtered to one state.
func (st *jobStore) list(state string) []JobStatus {
	now := time.Now() //lint:allow wallclock job-store TTL eviction on the read path, never enters a stall table
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictExpiredLocked(now)
	out := []JobStatus{}
	for _, j := range st.order {
		if state != "" && j.state != state {
			continue
		}
		out = append(out, st.statusLocked(j))
	}
	return out
}

// jobView is one consistent observation an SSE iteration works from:
// terminal state, result bytes and the partials beyond what the stream
// already sent, all read under one lock — so a terminal view always
// includes every partial.
type jobView struct {
	state        string
	errBody      *ErrorBody
	result       []byte
	resultStatus int
	partials     []jobPartial
	done         int64
	total        int64
}

// view reads one consistent jobView, returning partials from index
// `from` on.
func (st *jobStore) view(j *job, from int) jobView {
	st.mu.Lock()
	defer st.mu.Unlock()
	v := jobView{
		state:        j.state,
		result:       j.result,
		resultStatus: j.resultStatus,
		done:         j.cellsDone.Load(),
		total:        j.cellsTotal.Load(),
	}
	if j.errBody != nil {
		e := *j.errBody
		v.errBody = &e
	}
	if from < len(j.partials) {
		v.partials = append([]jobPartial(nil), j.partials[from:]...)
	}
	return v
}

// subscribe registers an SSE wakeup channel on j.
func (st *jobStore) subscribe(j *job) chan struct{} {
	ch := make(chan struct{}, 1)
	st.mu.Lock()
	j.subs = append(j.subs, ch)
	st.mu.Unlock()
	return ch
}

// unsubscribe removes a wakeup channel registered by subscribe.
func (st *jobStore) unsubscribe(j *job, ch chan struct{}) {
	st.mu.Lock()
	for i, c := range j.subs {
		if c == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
	st.mu.Unlock()
}

// counters snapshots the job accounting for /metrics and the deep
// health probe's conservation audit.
func (st *jobStore) counters() audit.JobCounters {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tally
}

// size reports how many jobs the store currently retains.
func (st *jobStore) size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.jobs)
}

// drain stops the job subsystem for graceful shutdown: new submissions
// are rejected (503 draining), queued jobs are cancelled, and running
// jobs get until ctx's deadline to finish before they are cancelled
// too. Safe to call once; later calls return immediately.
func (st *jobStore) drain(ctx context.Context) {
	now := time.Now() //lint:allow wallclock job-store TTL deadline for drain-cancelled jobs, never enters a stall table
	st.mu.Lock()
	if st.draining {
		st.mu.Unlock()
		return
	}
	st.draining = true
	var wake []chan struct{}
	var running []*job
	for _, j := range st.order {
		switch j.state {
		case jobStateQueued:
			_, subs := st.cancelLocked(j, now)
			wake = append(wake, subs...)
		case jobStateRunning:
			running = append(running, j)
		}
	}
	st.mu.Unlock()
	close(st.stopCh)
	notifyAll(wake)

	for _, j := range running {
		select {
		case <-j.doneCh:
			continue
		case <-ctx.Done():
		}
		// Deadline expired: force-cancel the stragglers. The TTL starts
		// at the cancel itself, not at drain start, so the drain wait
		// never eats into a result's retention.
		cancelAt := time.Now() //lint:allow wallclock job-store TTL deadline for drain-cancelled jobs, never enters a stall table
		st.mu.Lock()
		fn, subs := st.cancelLocked(j, cancelAt)
		st.mu.Unlock()
		if fn != nil {
			fn()
		}
		notifyAll(subs)
	}
}

// validateJobCreate checks a POST /v2/jobs body: a known type,
// exactly its matching spec, and (for experiments jobs) only known
// artifact ids, so a bad id is a 400 at submit rather than a job that
// runs the ids before it and then fails.
func validateJobCreate(req JobCreateRequest) (class string, aerr *apiError) {
	specs := 0
	if req.Profile != nil {
		specs++
	}
	if req.Recommend != nil {
		specs++
	}
	if req.Blame != nil {
		specs++
	}
	if req.Experiments != nil {
		specs++
	}
	bad := func(msg string) (string, *apiError) {
		return "", newAPIError(http.StatusBadRequest, errInvalidRequest, msg)
	}
	switch req.Type {
	case "profile":
		if req.Profile == nil || specs != 1 {
			return bad(`"profile" jobs carry exactly the "profile" spec`)
		}
	case "recommend":
		if req.Recommend == nil || specs != 1 {
			return bad(`"recommend" jobs carry exactly the "recommend" spec`)
		}
	case "blame":
		if req.Blame == nil || specs != 1 {
			return bad(`"blame" jobs carry exactly the "blame" spec`)
		}
	case "experiments":
		if req.Experiments == nil || specs != 1 {
			return bad(`"experiments" jobs carry exactly the "experiments" spec`)
		}
		for _, id := range req.Experiments.IDs {
			if _, err := experiments.ByID(id); err != nil {
				return bad(err.Error())
			}
		}
	default:
		return bad(`"type" must be "profile", "recommend", "blame" or "experiments"`)
	}
	return req.Type, nil
}

// executeJob runs one dispatched job to its terminal state. The job's
// context carries the progress hook (SSE cells); compute goes through the same
// functions as the synchronous v1 handlers, so the persisted result is
// byte-identical to the v1 response for the same request.
func (s *Server) executeJob(j *job) {
	defer j.cancel()
	ctx := core.WithProgress(j.runCtx, func(done, total int) { s.jobsStore.progress(j, done, total) })

	fail := func(aerr *apiError) {
		s.jobsStore.finish(j, encodeJSON(aerr.envelope()), aerr.status,
			&ErrorBody{Code: aerr.code, Message: aerr.message})
	}
	switch j.class {
	case "profile":
		resp, aerr := s.computeProfile(ctx, *j.req.Profile)
		if aerr != nil {
			fail(aerr)
			return
		}
		s.jobsStore.finish(j, encodeJSON(resp), http.StatusOK, nil)
	case "recommend":
		resp, aerr := s.computeRecommend(ctx, *j.req.Recommend)
		if aerr != nil {
			fail(aerr)
			return
		}
		s.jobsStore.finish(j, encodeJSON(resp), http.StatusOK, nil)
	case "blame":
		resp, aerr := s.computeBlame(ctx, *j.req.Blame)
		if aerr != nil {
			fail(aerr)
			return
		}
		s.jobsStore.finish(j, encodeJSON(resp), http.StatusOK, nil)
	case "experiments":
		ids := j.req.Experiments.IDs
		if len(ids) == 0 {
			reg := experiments.Registry()
			ids = make([]string, len(reg))
			for i, e := range reg {
				ids[i] = e.ID
			}
		}
		out := JobExperimentsResult{Experiments: make([]*ExperimentResponse, 0, len(ids))}
		for _, id := range ids {
			resp, aerr := s.computeExperiment(ctx, id)
			if aerr != nil {
				fail(aerr)
				return
			}
			s.jobsStore.addPartial(j, id, encodeJSON(resp))
			out.Experiments = append(out.Experiments, resp)
		}
		s.jobsStore.finish(j, encodeJSON(out), http.StatusOK, nil)
	}
}

// handleJobCreate serves POST /v2/jobs: admit one asynchronous job and
// return its queued status immediately (202).
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req JobCreateRequest
	if aerr := decode(w, r, &req); aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	class, aerr := validateJobCreate(req)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	snap, aerr := s.jobsStore.submit(req, class)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

// handleJobList serves GET /v2/jobs: the retained jobs in submission
// order, optionally filtered with ?state=.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	switch state {
	case "", jobStateQueued, jobStateRunning, jobStateDone, jobStateFailed, jobStateCancelled:
	default:
		writeError(w, http.StatusBadRequest, errInvalidRequest,
			`"state" must be one of queued, running, done, failed, cancelled`)
		return
	}
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobsStore.list(state)})
}

// handleJobGet serves GET /v2/jobs/{id}: the job's status snapshot,
// including progress and settled partial labels.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobsStore.get(id)
	if j == nil {
		writeError(w, http.StatusNotFound, errNotFound, "no job "+id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobsStore.status(j))
}

// handleJobResult serves GET /v2/jobs/{id}/result: replay the terminal
// job's persisted bytes with the status the synchronous call would
// have used (200 for done, the mapped error status for failed, 410 for
// cancelled). A non-terminal job answers 409 job_not_ready.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobsStore.get(id)
	if j == nil {
		writeError(w, http.StatusNotFound, errNotFound, "no job "+id)
		return
	}
	v := s.jobsStore.view(j, 0)
	if !terminalState(v.state) {
		writeError(w, http.StatusConflict, errJobNotReady,
			fmt.Sprintf("job %s is %s; wait for a terminal state", id, v.state))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(v.resultStatus)
	_, _ = w.Write(v.result)
}

// handleJobCancel serves DELETE /v2/jobs/{id}: cancel the job (a
// no-op on terminal jobs) and return its status.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, aerr := s.jobsStore.cancel(r.PathValue("id"))
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	writeJSON(w, http.StatusOK, snap)
}
