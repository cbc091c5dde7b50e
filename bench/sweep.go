package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"stash/internal/api"
)

// The stashd-sweep shape.
const (
	sweepMaxActive  = 8                      // experiments jobs in flight
	profileJobEvery = 200 * time.Millisecond // one v2 profile job per tick
	pollEvery       = 10 * time.Millisecond  // GET /v2/jobs cadence
	interactiveGap  = 20 * time.Millisecond  // open loop at 50 req/s
	hotSetSize      = 32                     // combos the interactive caller repeats
)

// jobTrack is the benchmark's view of one v2 job, as seen by polling.
type jobTrack struct {
	id, kind, label string // label: experiment id or profile key
	submitted       time.Time
	started         time.Time // first poll that saw it running (or already terminal)
	finished        time.Time // first poll that saw it terminal
	state           string
	span            int
}

func (j *jobTrack) terminal() bool {
	return j.state == "done" || j.state == "failed" || j.state == "cancelled"
}

// interactiveReply is one open-loop request.
type interactiveReply struct {
	key      string
	code     int
	body     []byte
	err      error
	late     float64 // ms the send trailed its due time
	fromDue  float64 // ms from due time to response
	fromSend float64 // ms from send to response
}

// sweepResult is one stashd-sweep pass.
type sweepResult struct {
	rec         passRec
	metrics     scrape
	jobs        []*jobTrack
	interactive []interactiveReply
	maxActive   int
	renderMS    float64
	cells       int
}

// runSweep is the stashd-sweep workload: per pass, a fresh server runs
// the experiment registry as one v2 job per experiment (at most
// sweepMaxActive in flight) plus a v2 profile job every
// profileJobEvery, while a second connection sends an open loop of
// /v1/profile calls over a seeded hot set, warmed before the clock
// starts. The job backlog exceeds the server's job workers, so dispatch
// order shows in job turnaround.
func runSweep(cfg config, o *outcome) error {
	golden, err := loadGolden(cfg.root)
	if err != nil {
		return err
	}
	exps, err := selectExperiments(cfg.experiments)
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	hot := catalog(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	hot = hot[:min(hotSetSize, len(hot))]
	if err := probeServers(o, cfg.setupProbes); err != nil {
		return err
	}

	seen := make(bodies)
	var fromDue, late, turnaround, queueWait []float64
	var serverProfile, serverCreate, wire, longest, render, maxActive, rps []float64
	// Each pass sends at least cfg.sweepInteractive interactive requests
	// and runs every experiment, so the minimum passes always give the
	// interactive p99 its 1000 samples and the turnaround p90 its 100.
	b := newBudget(cfg, cfg.sweepMinPasses)
	for b.next() {
		start := now()
		p, err := sweepPass(cfg, o, ids, hot, golden, seen, nil, "")
		if err != nil {
			return err
		}
		b.done(start)
		o.passes = append(o.passes, p.rec)
		var rtt []float64
		for _, r := range p.interactive {
			fromDue = append(fromDue, r.fromDue)
			late = append(late, r.late)
			rtt = append(rtt, r.fromSend)
		}
		var spans []float64
		for _, j := range p.jobs {
			if j.kind == "experiments" {
				turnaround = append(turnaround, ms(j.finished.Sub(j.submitted)))
				queueWait = append(queueWait, ms(j.started.Sub(j.submitted)))
				spans = append(spans, j.finished.Sub(j.started).Seconds())
			}
		}
		serverProfile = append(serverProfile, p.metrics.serverMS("profile"))
		serverCreate = append(serverCreate, p.metrics.serverMS("job-create"))
		wire = append(wire, mean(rtt)-p.metrics.serverMS("profile"))
		longest = append(longest, maxOf(spans))
		render = append(render, p.renderMS)
		maxActive = append(maxActive, float64(p.maxActive))
		rps = append(rps, float64(len(p.interactive))/p.rec.wall)
		o.layer["report.cells"] = float64(p.cells)
	}
	// p50_ms is the batch user's wait. The interactive caller's latency
	// is a queue wait for a P the job workers hold: its median sits on a
	// broad slope (p10 2 ms, p50 16 ms, p90 50 ms), and its spread over
	// ten seeds reached 30%, so it is a per-layer metric.
	o.primary = turnaround
	o.layer["latency.interactive_p50_ms"] = median(fromDue)
	o.layer["api.server_ms.profile"] = median(serverProfile)
	o.layer["api.server_ms.job-create"] = median(serverCreate)
	o.layer["api.wire_ms"] = median(wire)
	o.layer["experiments.longest_span_s"] = median(longest)
	o.layer["report.render_ms"] = median(render)
	o.layer["jobs.max_active"] = median(maxActive)
	o.layer["jobs.queue_wait_p50_ms"] = median(queueWait)
	o.layer["load.throughput_rps"] = median(rps)
	o.tail("latency.profile_p99_ms", fromDue, 99)
	o.tail("load.late_p99_ms", late, 99)
	o.tail("latency.turnaround_p50_ms", turnaround, 50)
	o.tail("latency.turnaround_p90_ms", turnaround, 90)

	if cfg.trace {
		tr := &tracer{}
		path := profilePath(cfg)
		p, err := sweepPass(cfg, o, ids, hot, golden, seen, tr, path)
		if err != nil {
			return err
		}
		o.tracedWall = p.rec.wall
		if err := o.addProfile(path); err != nil {
			return err
		}
		return o.writeTrace(cfg, tr)
	}
	return nil
}

// sweepPass runs one sweep against a fresh server and checks every job
// result and interactive response.
func sweepPass(cfg config, o *outcome, ids []string, hot []api.ProfileRequest, golden map[string]string,
	seen bodies, tr *tracer, profile string) (*sweepResult, error) {
	s, err := startServer(profile)
	if err != nil {
		return nil, err
	}
	defer s.c.kill()
	batch, inter := newClient(), newClient()
	defer batch.CloseIdleConnections()
	defer inter.CloseIdleConnections()
	res := &sweepResult{}
	warm(o, s, hot, seen, []*http.Client{batch, inter})
	passID := tr.reserve(0, "sweep pass", "")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.interactive = openLoop(s, inter, hot, rand.New(rand.NewSource(cfg.seed+1)), start, stop, cfg.sweepInteractive, tr, passID)
	}()

	byID := make(map[string]*jobTrack)
	submit := func(kind, label string, req api.JobCreateRequest) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		t := now()
		o.attempted++
		code, resp, err := do(batch, http.MethodPost, s.base+"/v2/jobs", body)
		if err != nil {
			return err
		}
		var st api.JobStatus
		if code != http.StatusAccepted || json.Unmarshal(resp, &st) != nil {
			o.fail("submit %s job %s: status %d: %s", kind, label, code, resp)
			return nil
		}
		j := &jobTrack{id: st.ID, kind: kind, label: label, submitted: t, state: st.State}
		j.span = tr.reserve(passID, "job "+kind+" "+label, st.ID)
		res.jobs = append(res.jobs, j)
		byID[st.ID] = j
		return nil
	}
	active := func(kind string) int {
		n := 0
		for _, j := range res.jobs {
			if !j.terminal() && (kind == "" || j.kind == kind) {
				n++
			}
		}
		return n
	}
	poll := func() error {
		code, body, err := do(batch, http.MethodGet, s.base+"/v2/jobs", nil)
		if err != nil {
			return err
		}
		var list api.JobListResponse
		if code != http.StatusOK || json.Unmarshal(body, &list) != nil {
			return fmt.Errorf("GET /v2/jobs: status %d: %s", code, body)
		}
		t := now()
		n := 0
		for _, st := range list.Jobs {
			if st.State == "queued" || st.State == "running" {
				n++
			}
			j := byID[st.ID]
			if j == nil || j.terminal() {
				continue
			}
			j.state = st.State
			if st.State != "queued" && j.started.IsZero() {
				j.started = t
				tr.add(j.span, "queued", j.id, j.submitted, t)
			}
			if j.terminal() {
				j.finished = t
				tr.add(j.span, "running", j.id, j.started, t)
				tr.set(j.span, j.submitted, t)
			}
		}
		res.maxActive = max(res.maxActive, n)
		return nil
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	nextExp, nextProfile := 0, start
	ticker := time.NewTicker(pollEvery)
	defer ticker.Stop()
	var sweepEnd time.Time
	for sweepEnd.IsZero() {
		if err := poll(); err != nil {
			return nil, err
		}
		if nextExp == len(ids) && active("experiments") == 0 {
			for _, j := range res.jobs {
				if j.kind == "experiments" && j.finished.After(sweepEnd) {
					sweepEnd = j.finished
				}
			}
			break
		}
		for nextExp < len(ids) && active("experiments") < sweepMaxActive && active("") < api.DefaultTenantQuota {
			id := ids[nextExp]
			nextExp++
			err := submit("experiments", id, api.JobCreateRequest{Type: "experiments",
				Experiments: &api.ExperimentsJobSpec{IDs: []string{id}}})
			if err != nil {
				return nil, err
			}
		}
		if !now().Before(nextProfile) && active("") < api.DefaultTenantQuota {
			c := hot[rng.Intn(len(hot))]
			err := submit("profile", profileKey(c), api.JobCreateRequest{Type: "profile", Profile: &c})
			if err != nil {
				return nil, err
			}
			nextProfile = nextProfile.Add(profileJobEvery)
		}
		<-ticker.C
	}
	close(stop)
	wg.Wait()
	tr.set(passID, start, sweepEnd)

	// Let the trailing profile jobs settle, untimed, before fetching.
	for active("") > 0 {
		if err := poll(); err != nil {
			return nil, err
		}
		<-ticker.C
	}
	if err := res.checkJobs(o, s, batch, golden, seen); err != nil {
		return nil, err
	}
	for _, r := range res.interactive {
		o.checkReply(r.key, r.code, r.body, r.err, seen)
	}

	m, err := s.scrape(batch)
	if err != nil {
		return nil, err
	}
	mem, use, err := s.stop()
	if err != nil {
		return nil, err
	}
	res.metrics = m
	res.rec = passRec{wall: sweepEnd.Sub(start).Seconds(), use: use, mem: mem, sched: m.sched()}
	return res, nil
}

// checkJobs fetches every job's result: each experiments job's tables
// must equal the golden output (stashd runs at seed 1), and every
// profile job's body must equal every other response to the same
// profile, v1 or v2.
func (res *sweepResult) checkJobs(o *outcome, s *server, cl *http.Client, golden map[string]string, seen bodies) error {
	for _, j := range res.jobs {
		code, body, err := do(cl, http.MethodGet, s.base+"/v2/jobs/"+j.id+"/result", nil)
		if err != nil {
			return err
		}
		if j.state != "done" || code != http.StatusOK {
			o.fail("job %s (%s %s): state %s, result status %d: %s", j.id, j.kind, j.label, j.state, code, body)
			continue
		}
		if j.kind == "profile" {
			if !seen.check(j.label, body) {
				o.fail("job %s: %s differs from an earlier identical request", j.id, j.label)
			}
			continue
		}
		var out api.JobExperimentsResult
		if err := json.Unmarshal(body, &out); err != nil || len(out.Experiments) != 1 || out.Experiments[0].ID != j.label {
			o.fail("job %s: malformed experiments result (%v)", j.id, err)
			continue
		}
		t := now()
		text := render(out.Experiments[0].Tables)
		res.renderMS += ms(now().Sub(t))
		res.cells += cells(out.Experiments[0].Tables)
		if text != golden[j.label] {
			o.fail("job %s: %s tables differ from %s", j.id, j.label, goldenFile)
		}
	}
	return nil
}

// warm profiles every hot combo once, untimed, spread over the given
// connections. Interactive callers of a running server ask for what is
// already cached; the batch sweep is what simulates cold.
func warm(o *outcome, s *server, hot []api.ProfileRequest, seen bodies, clients []*http.Client) {
	type reply struct {
		code int
		body []byte
		err  error
	}
	replies := make([]reply, len(hot))
	var wg sync.WaitGroup
	for w, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(hot); i += len(clients) {
				body, err := json.Marshal(hot[i])
				if err == nil {
					replies[i].code, replies[i].body, err = do(cl, http.MethodPost, s.base+"/v1/profile", body)
				}
				replies[i].err = err
			}
		}()
	}
	wg.Wait()
	for i, r := range replies {
		o.checkReply(profileKey(hot[i]), r.code, r.body, r.err, seen)
	}
}

// openLoop sends /v1/profile for a uniform draw from hot every
// interactiveGap on connection cl, until stop closes and at least
// least requests went out. Each request is timed from its due time, so a
// stall also counts against the requests queued behind it.
func openLoop(s *server, cl *http.Client, hot []api.ProfileRequest, rng *rand.Rand, start time.Time,
	stop <-chan struct{}, least int, tr *tracer, parent int) []interactiveReply {
	var out []interactiveReply
	for i := 0; ; i++ {
		if i >= least {
			select {
			case <-stop:
				return out
			default:
			}
		}
		due := start.Add(time.Duration(i) * interactiveGap)
		if wait := due.Sub(now()); wait > 0 {
			time.Sleep(wait)
		}
		c := hot[rng.Intn(len(hot))]
		body, err := json.Marshal(c)
		r := interactiveReply{key: profileKey(c), err: err}
		sent := now()
		if err == nil {
			r.code, r.body, r.err = do(cl, http.MethodPost, s.base+"/v1/profile", body)
		}
		done := now()
		r.late, r.fromDue, r.fromSend = ms(sent.Sub(due)), ms(done.Sub(due)), ms(done.Sub(sent))
		tr.add(parent, "POST /v1/profile", fmt.Sprintf("i%d", i), sent, done)
		out = append(out, r)
	}
}
