package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stash/internal/api"
	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/dnn"
	"stash/internal/workload"
)

// mixClients is the closed loop's client count, one connection each.
const mixClients = 2

// oracleProfiles is how many distinct served profiles are re-computed
// in process and compared.
const oracleProfiles = 20

// mixReq is one request of the stashd-mix sequence.
type mixReq struct {
	kind string // "profile" or "recommend"
	key  string
	body []byte
}

// mixSeed fixes the request multiset: which combos and pairs are
// popular and how often each is asked for. The workload seed orders the
// requests. Drawing the multiset from the workload seed changed a
// pass's simulation work, and so its length, by more than the bounds
// from seed to seed; ordering one multiset keeps the work equal.
const mixSeed = 1

// mixSequence builds the request sequence: 90% /v1/profile, Zipf(1.1)
// over the catalog in popularity order, and 10% /v1/recommend,
// Zipf(1.1) over the (model, batch) pairs in popularity order, in the
// order the workload seed shuffles them. The split is exact, so the
// tail percentiles always have the samples they need.
func mixSequence(cfg config) ([]mixReq, map[string]api.ProfileRequest, error) {
	combos := catalog(cfg)
	pairs := recommendPairs(combos)
	pop := rand.New(rand.NewSource(mixSeed))
	pop.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	pop.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	zc := rand.NewZipf(pop, 1.1, 1, uint64(len(combos)-1))
	zp := rand.NewZipf(pop, 1.1, 1, uint64(len(pairs)-1))
	reqs := make([]mixReq, cfg.mixRequests)
	profiles := make(map[string]api.ProfileRequest)
	for i := range reqs {
		var r mixReq
		var v any
		if i < len(reqs)/10 {
			p := pairs[zp.Uint64()]
			r = mixReq{kind: "recommend", key: fmt.Sprintf("recommend %s/bs%d", p.Model, p.Batch)}
			v = api.RecommendRequest{Model: p.Model, Batch: p.Batch}
		} else {
			c := combos[zc.Uint64()]
			r = mixReq{kind: "profile", key: profileKey(c)}
			v = c
			profiles[r.key] = c
		}
		body, err := json.Marshal(v)
		if err != nil {
			return nil, nil, err
		}
		r.body = body
		reqs[i] = r
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, profiles, nil
}

// runMix is the stashd-mix workload: per pass, a fresh server and a
// closed loop of mixClients clients sending the seeded sequence, first
// cold and then cfg.mixReplays times warm. The scenario cache starts
// empty each pass and never evicts at this working set, so most cold
// requests are cache hits and the cold tail is the simulation path.
// wall_s is the cold loop. p50_ms is the median of every warm request:
// the HTTP/JSON path of a server whose cache holds the whole mix. Taken
// from the cold loop instead, the requests that repeat an answered one
// moved 12-26% from run to run, because how many of them overlapped a
// simulation on the other client depends on the seeded order.
func runMix(cfg config, o *outcome) error {
	reqs, profiles, err := mixSequence(cfg)
	if err != nil {
		return err
	}
	if err := probeServers(o, cfg.setupProbes); err != nil {
		return err
	}
	seen := make(bodies)
	lat := map[string][]float64{}
	var warm []float64
	var serverProfile, serverRecommend, wire, rps []float64
	b := newBudget(cfg, cfg.mixMinPasses)
	for b.next() {
		start := now()
		p, err := mixPass(cfg, o, reqs, seen, nil, "")
		if err != nil {
			return err
		}
		b.done(start)
		for _, k := range []string{"profile", "recommend"} {
			lat[k] = append(lat[k], p.lat[k]...)
		}
		warm = append(warm, p.warm...)
		o.passes = append(o.passes, p.rec)
		serverProfile = append(serverProfile, p.warmMetrics.serverMS("profile"))
		serverRecommend = append(serverRecommend, p.warmMetrics.serverMS("recommend"))
		wire = append(wire, mean(p.warmProfile)-p.warmMetrics.serverMS("profile"))
		rps = append(rps, float64(len(reqs))/p.rec.wall)
	}
	o.primary = warm
	o.layer["api.server_ms.profile"] = median(serverProfile)
	o.layer["api.server_ms.recommend"] = median(serverRecommend)
	o.layer["api.wire_ms"] = median(wire)
	o.layer["load.throughput_rps"] = median(rps)
	o.tail("latency.profile_p99_ms", lat["profile"], 99)
	o.tail("latency.recommend_p50_ms", lat["recommend"], 50)
	o.tail("latency.recommend_p90_ms", lat["recommend"], 90)

	if cfg.trace {
		tr := &tracer{}
		path := profilePath(cfg)
		p, err := mixPass(cfg, o, reqs, seen, tr, path)
		if err != nil {
			return err
		}
		o.tracedWall = p.rec.wall
		if err := o.addProfile(path); err != nil {
			return err
		}
		if err := o.writeTrace(cfg, tr); err != nil {
			return err
		}
	}
	checkProfiles(cfg, o, seen, profiles)
	return nil
}

// reply is one answered request of a pass.
type reply struct {
	code   int
	body   []byte
	t0, t1 time.Time
	err    error
}

// mixResult is one stashd-mix pass.
type mixResult struct {
	rec         passRec
	lat         map[string][]float64 // cold loop client latency ms by kind
	warm        []float64            // warm replays client latency ms, every request
	warmProfile []float64            // the same, /v1/profile only
	warmMetrics scrape               // series change over the warm replays
}

// mixPass runs the sequence once cold against a fresh server, then
// cfg.mixReplays times on the now-warm server. The pass's wall time,
// peak resident set, scheduler counters and tail latencies are the cold
// loop's.
func mixPass(cfg config, o *outcome, reqs []mixReq, seen bodies, tr *tracer, profile string) (*mixResult, error) {
	s, err := startServer(profile)
	if err != nil {
		return nil, err
	}
	defer s.c.kill()
	cl := newClient()
	defer cl.CloseIdleConnections()

	passID := tr.reserve(0, "mix pass", "")
	start := now()
	replies := closedLoop(s, reqs, tr, passID, "r")
	end := now()
	tr.set(passID, start, end)
	cold, err := s.scrape(cl)
	if err != nil {
		return nil, err
	}
	// The warm replays' request rate leaves the peak to GC timing: it
	// read 18.2-20.5 MB over four seeds, against 17.0-17.4 MB for the
	// cold loop alone.
	rss, err := s.peakRSS()
	if err != nil {
		return nil, err
	}
	res := &mixResult{lat: map[string][]float64{}}
	for i, r := range replies {
		if o.checkReply(reqs[i].key, r.code, r.body, r.err, seen) {
			res.lat[reqs[i].kind] = append(res.lat[reqs[i].kind], ms(r.t1.Sub(r.t0)))
		}
	}

	warmID := tr.reserve(0, "mix warm replays", "")
	warmStart := now()
	for k := 0; k < cfg.mixReplays; k++ {
		for i, r := range closedLoop(s, reqs, tr, warmID, fmt.Sprintf("w%d.", k+1)) {
			if o.checkReply(reqs[i].key, r.code, r.body, r.err, seen) {
				d := ms(r.t1.Sub(r.t0))
				res.warm = append(res.warm, d)
				if reqs[i].kind == "profile" {
					res.warmProfile = append(res.warmProfile, d)
				}
			}
		}
	}
	tr.set(warmID, warmStart, now())
	warm, err := s.scrape(cl)
	if err != nil {
		return nil, err
	}
	res.warmMetrics = warm.minus(cold)

	mem, use, err := s.stop()
	if err != nil {
		return nil, err
	}
	use.MaxRSS = rss
	res.rec = passRec{wall: end.Sub(start).Seconds(), use: use, mem: mem, sched: cold.sched()}
	return res, nil
}

// closedLoop sends the sequence once from mixClients clients, one
// connection each, every client sending its next request when its
// previous one is answered. A traced request's span id is tag and its
// index in the sequence.
func closedLoop(s *server, reqs []mixReq, tr *tracer, parent int, tag string) []reply {
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(mixClients, runtime.NumCPU()); w++ {
		cl := newClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := now()
				code, body, err := do(cl, http.MethodPost, s.base+"/v1/"+reqs[i].kind, reqs[i].body)
				t1 := now()
				replies[i] = reply{code, body, t0, t1, err}
				tr.add(parent, "POST /v1/"+reqs[i].kind, fmt.Sprintf("%s%d", tag, i), t0, t1)
			}
		}()
	}
	wg.Wait()
	return replies
}

// checkProfiles re-computes a seeded sample of the served profiles in
// process with a fresh profiler and checks that each response's
// rendered text equals core's own rendering.
func checkProfiles(cfg config, o *outcome, seen bodies, profiles map[string]api.ProfileRequest) {
	keys := sortedKeys(profiles)
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > oracleProfiles {
		keys = keys[:oracleProfiles]
	}
	p := core.New(core.WithIterations(core.DefaultIterations), core.WithSeed(1))
	want := make([]string, len(keys))
	errs := make([]error, len(keys))
	_ = core.ForEach(0, len(keys), func(i int) error {
		want[i], errs[i] = profileText(p, profiles[keys[i]])
		return nil // per-sample errors are reported below
	})
	for i, k := range keys {
		o.attempted++
		var got api.ProfileResponse
		if err := json.Unmarshal(seen[k], &got); err != nil {
			o.fail("%s: decode response: %v", k, err)
			continue
		}
		switch {
		case errs[i] != nil:
			o.fail("%s: in-process profile: %v", k, errs[i])
		case got.Rendered != want[i]:
			o.fail("%s: served rendering differs from core.Profile", k)
		}
	}
}

// profileText is core's rendering of one profile.
func profileText(p *core.Profiler, c api.ProfileRequest) (string, error) {
	m, err := dnn.ByName(c.Model)
	if err != nil {
		return "", err
	}
	it, err := cloud.ByName(c.Instance)
	if err != nil {
		return "", err
	}
	job, err := workload.NewJob(m, c.Batch)
	if err != nil {
		return "", err
	}
	rep, err := p.Profile(job, it)
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}
