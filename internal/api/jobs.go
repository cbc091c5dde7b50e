package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
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

// jobClasses are the job types in fixed dispatch order, with their
// fair-queueing weights: a backlogged tenant's interactive profiles
// and blame attributions dispatch 4x as often as its experiment
// sweeps, 2x as often as its recommendations. The array index is the
// class id everywhere below.
var jobClasses = [...]struct {
	name   string
	weight int64
}{
	{"profile", 4},
	{"blame", 4},
	{"recommend", 2},
	{"experiments", 1},
}

// classIndex maps a class name to its jobClasses index (-1 if unknown).
func classIndex(name string) int {
	for i := range jobClasses {
		if jobClasses[i].name == name {
			return i
		}
	}
	return -1
}

const (
	// DefaultJobWorkers is the size of the job executor pool. It is
	// deliberately fixed (not GOMAXPROCS-derived) so a server's
	// dispatch behavior is identical on every machine, and deliberately
	// separate from the v1 concurrency gate: synchronous /v1 calls keep
	// their own reserved lane and are never starved by queued jobs.
	DefaultJobWorkers = 2

	// DefaultJobTTL is how long a terminal job's result is retained for
	// replay before it becomes evictable.
	DefaultJobTTL = 15 * time.Minute

	// DefaultJobStoreMax caps how many jobs (live + terminal) the store
	// retains; beyond it the oldest terminal job is evicted per
	// admission, and admission fails with store_full when every
	// retained job is still active.
	DefaultJobStoreMax = 256

	// DefaultTenantQuota caps one tenant's active (queued + running)
	// jobs.
	DefaultTenantQuota = 16

	// defaultJobPriority is the priority when a request omits it;
	// priorities order jobs within one (tenant, class) queue only.
	defaultJobPriority = 5
	maxJobPriority     = 9

	// strideScale is the stride numerator of the fair queue: an entity
	// of weight w advances its virtual-time pass by strideScale/w per
	// dispatch, so passes stay exact integers for every weight up to
	// strideScale and scheduling never compares floats.
	strideScale = 840

	// MaxTenantWeight is the largest fair-queue weight a tenant can
	// hold (WithTenantWeight): the stride numerator, so every weight's
	// stride is a whole number of virtual-time units.
	MaxTenantWeight = strideScale
)

// tenantHeader names the requesting tenant; absent means
// defaultTenant. The v2 job API scopes every job to its tenant, and
// the scenario scheduler mirrors per-tenant conservation counters
// under the same name.
const (
	tenantHeader  = "X-Stash-Tenant"
	defaultTenant = "default"
)

// tenantNamePattern is the label-safe alphabet tenant names are drawn
// from, so they can appear verbatim in /metrics series.
const tenantNamePattern = `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`

var tenantNameRe = regexp.MustCompile(`^` + tenantNamePattern + `$`)

// CheckTenantName reports whether name can identify a tenant, both in
// the X-Stash-Tenant header and in a WithTenantWeight entry.
func CheckTenantName(name string) error {
	if !tenantNameRe.MatchString(name) {
		return fmt.Errorf("need %s", tenantNamePattern)
	}
	return nil
}

// tenantOf resolves the request's tenant from the X-Stash-Tenant
// header; an absent header means defaultTenant.
func tenantOf(r *http.Request) (string, *apiError) {
	name := r.Header.Get(tenantHeader)
	if name == "" {
		return defaultTenant, nil
	}
	if err := CheckTenantName(name); err != nil {
		return "", newAPIError(http.StatusBadRequest, errInvalidRequest,
			fmt.Sprintf("invalid %s header: %v", tenantHeader, err))
	}
	return name, nil
}

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
	id       string
	seq      int64
	tenant   string
	class    string
	priority int
	req      JobCreateRequest

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

// classQueue is one (tenant, class) pending-job queue with its stride
// scheduler state.
type classQueue struct {
	stride int64
	pass   int64
	jobs   []*job // submission order; dispatch picks max priority
}

// tenantSched is one tenant's scheduler node: a stride pass among
// tenants, and a nested stride schedule across its class queues.
type tenantSched struct {
	name    string
	stride  int64
	pass    int64
	vtime   int64 // pass of this tenant's last dispatched class
	classes [len(jobClasses)]classQueue
}

// hasPending reports whether any class queue holds a job.
func (ts *tenantSched) hasPending() bool {
	for i := range ts.classes {
		if len(ts.classes[i].jobs) > 0 {
			return true
		}
	}
	return false
}

// jobTally is one tenant's job accounting, guarded by jobStore.mu so
// the lifecycle balance (audit.JobCounters) is exact at every
// snapshot.
type jobTally struct {
	accepted, rejected      int64
	done, failed, cancelled int64
	queued, running         int64
	cells                   int64
}

// jobStore is the v2 job subsystem: admission (per-tenant quotas, a
// bounded store with TTL + LRU eviction of terminal jobs), a two-level
// weighted fair queue (stride scheduling across tenants, then across
// job classes within the tenant, priorities within a class), a fixed
// worker pool, cancellation and drain. One mutex guards all state
// transitions and snapshots.
type jobStore struct {
	workers int
	ttl     time.Duration
	maxJobs int
	quota   int
	weights map[string]int64

	exec   func(*job)
	wakeCh chan struct{}
	stopCh chan struct{}

	mu       sync.Mutex
	draining bool
	stopped  bool
	nextSeq  int64
	doneSeq  int64
	vtime    int64 // pass of the last dispatched tenant
	jobs     map[string]*job
	order    []*job // submission order (evicted jobs removed)
	sched    map[string]*tenantSched
	tallies  map[string]*jobTally
}

func newJobStore(workers int, ttl time.Duration, maxJobs, quota int, weights map[string]int64) *jobStore {
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
		weights: weights,
		wakeCh:  make(chan struct{}, workers),
		stopCh:  make(chan struct{}),
		jobs:    make(map[string]*job),
		sched:   make(map[string]*tenantSched),
		tallies: make(map[string]*jobTally),
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
		draining := st.draining
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
		st.exec(j)
	}
}

// wakeWorkers nudges idle workers after an enqueue. The channel holds
// one token per worker, so dropping a send is only possible when every
// worker already has a pending wakeup; workers drain queues in a loop,
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

// tallyLocked resolves a tenant's accounting, creating it on first use.
func (st *jobStore) tallyLocked(tenant string) *jobTally {
	t := st.tallies[tenant]
	if t == nil {
		t = &jobTally{}
		st.tallies[tenant] = t
	}
	return t
}

// submit admits one job: drain and quota checks, capacity eviction,
// then enqueue into the fair queue. The returned JobStatus is
// snapshotted inside the same critical section that enqueues, so a 202
// body always reads "queued" with zeroed progress — byte-stable no
// matter how fast a worker picks the job up.
func (st *jobStore) submit(tenant string, req JobCreateRequest, class string, priority int) (JobStatus, *apiError) {
	now := time.Now() //lint:allow wallclock job-store TTL/eviction deadlines, never enters a stall table
	st.mu.Lock()
	tally := st.tallyLocked(tenant)
	if st.draining {
		tally.rejected++
		st.mu.Unlock()
		return JobStatus{}, newAPIError(http.StatusServiceUnavailable, errDraining,
			"server is draining; not accepting new jobs")
	}
	st.evictExpiredLocked(now)
	if active := tally.queued + tally.running; active >= int64(st.quota) {
		tally.rejected++
		st.mu.Unlock()
		return JobStatus{}, newAPIError(http.StatusTooManyRequests, errQuotaExceeded,
			fmt.Sprintf("tenant %q has %d active jobs (quota %d)", tenant, active, st.quota))
	}
	if len(st.jobs) >= st.maxJobs && !st.evictOneLocked() {
		tally.rejected++
		st.mu.Unlock()
		return JobStatus{}, newAPIError(http.StatusTooManyRequests, errStoreFull,
			fmt.Sprintf("job store holds %d active jobs (max %d)", len(st.jobs), st.maxJobs))
	}
	st.nextSeq++
	j := &job{
		id:       fmt.Sprintf("job-%d", st.nextSeq),
		seq:      st.nextSeq,
		tenant:   tenant,
		class:    class,
		priority: priority,
		req:      req,
		state:    jobStateQueued,
		doneCh:   make(chan struct{}),
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j)
	st.enqueueLocked(j)
	tally.accepted++
	tally.queued++
	snap := st.statusLocked(j)
	st.mu.Unlock()
	st.wakeWorkers()
	return snap, nil
}

// enqueueLocked inserts j into its (tenant, class) queue, activating
// scheduler nodes as needed. An idle entity rejoins at the current
// virtual time (max of its old pass and the last dispatch's pass), the
// stride-scheduling rule that stops an idle tenant from hoarding
// credit and then monopolizing the workers.
func (st *jobStore) enqueueLocked(j *job) {
	ts := st.sched[j.tenant]
	if ts == nil {
		w := min(max(st.weights[j.tenant], 1), MaxTenantWeight)
		ts = &tenantSched{name: j.tenant, stride: strideScale / w, pass: st.vtime}
		for i := range ts.classes {
			ts.classes[i].stride = strideScale / jobClasses[i].weight
			ts.classes[i].pass = ts.vtime
		}
		st.sched[j.tenant] = ts
	}
	if !ts.hasPending() {
		ts.pass = max(ts.pass, st.vtime)
	}
	cq := &ts.classes[classIndex(j.class)]
	if len(cq.jobs) == 0 {
		cq.pass = max(cq.pass, ts.vtime)
	}
	cq.jobs = append(cq.jobs, j)
}

// dispatchLocked picks the next job per the two-level stride schedule
// and transitions it queued -> running. Ties break deterministically:
// lexicographic tenant name, then class order (profile before
// recommend before experiments), then highest priority, then
// submission order — so a given submission history always dispatches
// in the same order regardless of goroutine scheduling.
func (st *jobStore) dispatchLocked() *job {
	var best *tenantSched
	for _, ts := range st.sched {
		if !ts.hasPending() {
			continue
		}
		if best == nil || ts.pass < best.pass || (ts.pass == best.pass && ts.name < best.name) {
			best = ts
		}
	}
	if best == nil {
		return nil
	}
	ci := -1
	for i := range best.classes {
		if len(best.classes[i].jobs) == 0 {
			continue
		}
		if ci < 0 || best.classes[i].pass < best.classes[ci].pass {
			ci = i
		}
	}
	cq := &best.classes[ci]
	bi := 0
	for i := 1; i < len(cq.jobs); i++ {
		if cq.jobs[i].priority > cq.jobs[bi].priority {
			bi = i
		}
	}
	j := cq.jobs[bi]
	cq.jobs = append(cq.jobs[:bi], cq.jobs[bi+1:]...)

	st.vtime = best.pass
	best.pass += best.stride
	best.vtime = cq.pass
	cq.pass += cq.stride

	j.state = jobStateRunning
	j.runCtx, j.cancel = context.WithCancel(context.Background())
	tally := st.tallyLocked(j.tenant)
	tally.queued--
	tally.running++
	return j
}

// removeQueuedLocked takes a queued job out of its class queue.
func (st *jobStore) removeQueuedLocked(j *job) {
	ts := st.sched[j.tenant]
	if ts == nil {
		return
	}
	cq := &ts.classes[classIndex(j.class)]
	for i, q := range cq.jobs {
		if q == j {
			cq.jobs = append(cq.jobs[:i], cq.jobs[i+1:]...)
			return
		}
	}
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
	tally := st.tallyLocked(j.tenant)
	tally.running--
	if errBody != nil {
		j.state = jobStateFailed
		e := *errBody
		j.errBody = &e
		tally.failed++
	} else {
		j.state = jobStateDone
		tally.done++
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
// job leaves its queue immediately; a running job is marked terminal
// here and now (its executor's context is cancelled by the caller via
// the returned func, and the executor discards whatever it computes).
// Terminal jobs are untouched. Returns the context cancel func to
// invoke after unlock (nil unless the job was running) and the
// subscriber channels to notify.
func (st *jobStore) cancelLocked(j *job, now time.Time) (context.CancelFunc, []chan struct{}) {
	tally := st.tallyLocked(j.tenant)
	var fn context.CancelFunc
	switch j.state {
	case jobStateQueued:
		st.removeQueuedLocked(j)
		tally.queued--
	case jobStateRunning:
		fn = j.cancel
		tally.running--
	default:
		return nil, nil
	}
	j.state = jobStateCancelled
	j.errBody = &ErrorBody{Code: errCancelled, Message: "job " + j.id + " was cancelled"}
	j.result = encodeJSON(ErrorResponse{Error: *j.errBody})
	j.resultStatus = http.StatusGone
	tally.cancelled++
	st.doneSeq++
	j.doneSeq = st.doneSeq
	j.expireAt = now.Add(st.ttl)
	close(j.doneCh)
	return fn, append([]chan struct{}(nil), j.subs...)
}

// cancel is DELETE /v2/jobs/{id}: cancel a job and return its status.
// Cancelling a terminal job is a no-op that returns the current state.
func (st *jobStore) cancel(tenant, id string) (JobStatus, *apiError) {
	now := time.Now() //lint:allow wallclock job-store TTL deadline, never enters a stall table
	st.mu.Lock()
	j := st.jobs[id]
	if j == nil || j.tenant != tenant {
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
// job's atomics and the tenant's informational cell counter, then
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
		st.tallyLocked(j.tenant).cells += int64(done)
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
		Tenant:   j.tenant,
		Type:     j.class,
		State:    j.state,
		Priority: j.priority,
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

// get resolves a job by id, scoped to the tenant: another tenant's job
// is indistinguishable from a missing one.
func (st *jobStore) get(tenant, id string) *job {
	now := time.Now() //lint:allow wallclock job-store TTL eviction on the read path, never enters a stall table
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictExpiredLocked(now)
	j := st.jobs[id]
	if j == nil || j.tenant != tenant {
		return nil
	}
	return j
}

// list snapshots the tenant's jobs in submission order, optionally
// filtered to one state.
func (st *jobStore) list(tenant, state string) []JobStatus {
	now := time.Now() //lint:allow wallclock job-store TTL eviction on the read path, never enters a stall table
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictExpiredLocked(now)
	out := []JobStatus{}
	for _, j := range st.order {
		if j.tenant != tenant {
			continue
		}
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

// counters snapshots every tenant's job accounting for /metrics and
// the deep health probe's conservation audit.
func (st *jobStore) counters() map[string]audit.JobCounters {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]audit.JobCounters, len(st.tallies))
	for name, t := range st.tallies {
		out[name] = audit.JobCounters{
			Accepted:  t.accepted,
			Rejected:  t.rejected,
			Done:      t.done,
			Failed:    t.failed,
			Cancelled: t.cancelled,
			Queued:    t.queued,
			Running:   t.running,
			Cells:     t.cells,
		}
	}
	return out
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
	st.stopped = true
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
		// Deadline expired: force-cancel the stragglers.
		st.mu.Lock()
		fn, subs := st.cancelLocked(j, now)
		st.mu.Unlock()
		if fn != nil {
			fn()
		}
		notifyAll(subs)
	}
}

// validateJobCreate checks a POST /v2/jobs body: a known type, exactly
// its matching spec, and an in-range priority.
func validateJobCreate(req JobCreateRequest) (class string, priority int, aerr *apiError) {
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
	bad := func(msg string) (string, int, *apiError) {
		return "", 0, newAPIError(http.StatusBadRequest, errInvalidRequest, msg)
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
	default:
		return bad(`"type" must be "profile", "recommend", "blame" or "experiments"`)
	}
	priority = defaultJobPriority
	if req.Priority != nil {
		priority = *req.Priority
		if priority < 0 || priority > maxJobPriority {
			return bad(fmt.Sprintf(`"priority" must be 0..%d, got %d`, maxJobPriority, priority))
		}
	}
	return req.Type, priority, nil
}

// executeJob runs one dispatched job to its terminal state. The job's
// context carries the tenant (per-tenant scenario conservation) and
// the progress hook (SSE cells); compute goes through the same
// functions as the synchronous v1 handlers, so the persisted result is
// byte-identical to the v1 response for the same request.
func (s *Server) executeJob(j *job) {
	defer j.cancel()
	ctx := core.WithTenant(j.runCtx, j.tenant)
	ctx = core.WithProgress(ctx, func(done, total int) { s.jobsStore.progress(j, done, total) })

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
	tenant, aerr := tenantOf(r)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	var req JobCreateRequest
	if aerr = decode(w, r, &req); aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	class, priority, aerr := validateJobCreate(req)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	snap, aerr := s.jobsStore.submit(tenant, req, class, priority)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

// handleJobList serves GET /v2/jobs: the tenant's jobs in submission
// order, optionally filtered with ?state=.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	tenant, aerr := tenantOf(r)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	state := r.URL.Query().Get("state")
	switch state {
	case "", jobStateQueued, jobStateRunning, jobStateDone, jobStateFailed, jobStateCancelled:
	default:
		writeError(w, http.StatusBadRequest, errInvalidRequest,
			`"state" must be one of queued, running, done, failed, cancelled`)
		return
	}
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobsStore.list(tenant, state)})
}

// handleJobGet serves GET /v2/jobs/{id}: the job's status snapshot,
// including progress and settled partial labels.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	tenant, aerr := tenantOf(r)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	id := r.PathValue("id")
	j := s.jobsStore.get(tenant, id)
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
	tenant, aerr := tenantOf(r)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	id := r.PathValue("id")
	j := s.jobsStore.get(tenant, id)
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
	tenant, aerr := tenantOf(r)
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	snap, aerr := s.jobsStore.cancel(tenant, r.PathValue("id"))
	if aerr != nil {
		writeJSON(w, aerr.status, aerr.envelope())
		return
	}
	writeJSON(w, http.StatusOK, snap)
}
