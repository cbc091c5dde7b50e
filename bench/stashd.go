package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"stash/internal/api"
	"stash/internal/cloud"
	"stash/internal/dnn"
)

// server is one freshly started stashd child.
type server struct {
	c     *child
	base  string
	ready time.Duration // spawn to /healthz 200
}

// startServer spawns a server child and waits for /healthz to answer
// 200. A non-empty profile path makes the child profile its CPU for its
// whole life.
func startServer(profile string) (*server, error) {
	args := []string{"-child", "serve"}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	c, err := spawn(args...)
	if err != nil {
		return nil, err
	}
	line, err := c.line()
	addr, ok := strings.CutPrefix(line, "ready ")
	if err != nil || !ok {
		c.kill()
		return nil, fmt.Errorf("server child not ready: %q %v", line, err)
	}
	s := &server{c: c, base: "http://" + addr}
	cl := newClient()
	defer cl.CloseIdleConnections()
	for attempt := 0; ; attempt++ {
		code, _, err := do(cl, http.MethodGet, s.base+"/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if attempt == 100 {
			c.kill()
			return nil, fmt.Errorf("server never healthy: status %d, %v", code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.ready = now().Sub(c.spawned)
	return s, nil
}

// stop shuts the server down and returns its runtime statistics and
// resource usage.
func (s *server) stop() (memStats, usage, error) {
	line, use, err := s.c.finish(true)
	var m memStats
	if err == nil {
		err = json.Unmarshal([]byte(line), &m)
	}
	return m, use, err
}

// peakRSS asks the running server for its peak resident set so far, in
// MB.
func (s *server) peakRSS() (float64, error) {
	if err := s.c.send("rss"); err != nil {
		return 0, err
	}
	line, err := s.c.line()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(line, 64)
}

// probeServers times n server start-ups for setup_s, each after
// probeGap of idle.
func probeServers(o *outcome, n int) error {
	for i := 0; i < n; i++ {
		time.Sleep(probeGap)
		s, err := startServer("")
		if err != nil {
			return err
		}
		o.setups = append(o.setups, s.ready.Seconds())
		if _, _, err := s.stop(); err != nil {
			return err
		}
	}
	return nil
}

// newClient is one client connection: a keep-alive transport that
// never opens a second connection, so a workload's connection count is
// its client count.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// do sends one request and reads the whole response.
func do(cl *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape is one /metrics exposition: each series' value by its full
// name with labels, e.g. `stashd_scenario_requests_total{pool="profile"}`.
type scrape map[string]float64

func (s *server) scrape(cl *http.Client) (scrape, error) {
	code, body, err := do(cl, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := make(scrape)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// minus is each series' change since an earlier scrape.
func (m scrape) minus(earlier scrape) scrape {
	out := make(scrape, len(m))
	for k, v := range m {
		out[k] = v - earlier[k]
	}
	return out
}

// sum adds every series of one metric name, across its labels.
func (m scrape) sum(name string) float64 {
	t := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// serverMS is an endpoint's mean server-side latency in ms, from the
// request-duration summary.
func (m scrape) serverMS(endpoint string) float64 {
	sel := `{endpoint="` + endpoint + `"}`
	return ratio(m["stashd_request_duration_seconds_sum"+sel]*1000, m["stashd_request_duration_seconds_count"+sel])
}

// sched reads the scenario scheduler's counters, summed over the
// server's pools.
func (m scrape) sched() schedStats {
	return schedStats{
		Requests:  int64(m.sum("stashd_scenario_requests_total")),
		Simulated: int64(m.sum("stashd_scenarios_simulated_total")),
		Hits:      int64(m.sum("stashd_scenario_cache_hits_total")),
		Waits:     int64(m.sum("stashd_scenario_singleflight_waits_total")),
	}
}

// profileKey names a profile request in failure messages and in the
// byte-identity check.
func profileKey(c api.ProfileRequest) string {
	return fmt.Sprintf("profile %s/bs%d@%s", c.Model, c.Batch, c.Instance)
}

// catalogBatches are the per-GPU batch sizes the stashd workloads draw.
var catalogBatches = []int{8, 16, 32, 48, 64, 96, 128, 256}

// catalog lists a profile request for every zoo model at every catalog
// batch on every instance type whose GPU memory holds it: 437 combos,
// in a fixed order. cfg.catalogSize keeps only a prefix.
func catalog(cfg config) []api.ProfileRequest {
	var out []api.ProfileRequest
	for _, e := range dnn.Zoo() {
		for _, b := range catalogBatches {
			for _, it := range cloud.Catalog() {
				if e.Model.TrainingMemoryBytes(b) <= it.GPUMemPerGPU() {
					out = append(out, api.ProfileRequest{Model: e.Model.Name, Instance: it.Name, Batch: b})
				}
			}
		}
	}
	if cfg.catalogSize > 0 && cfg.catalogSize < len(out) {
		out = out[:cfg.catalogSize]
	}
	return out
}

// pair is one (model, batch) recommend request.
type pair struct {
	Model string `json:"model"`
	Batch int    `json:"batch"`
}

// recommendPairs are the (model, batch) pairs of combos that fit some
// P2 or P3 GPU, the families a default recommendation ranks.
func recommendPairs(combos []api.ProfileRequest) []pair {
	family := make(map[string]string)
	for _, it := range cloud.Catalog() {
		family[it.Name] = it.Family
	}
	seen := make(map[pair]bool)
	var out []pair
	for _, c := range combos {
		p := pair{c.Model, c.Batch}
		if f := family[c.Instance]; (f == "P2" || f == "P3") && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// checkReply counts one request and reports whether it succeeded with a
// body identical to every earlier answer to the same request.
func (o *outcome) checkReply(key string, code int, body []byte, err error, seen bodies) bool {
	o.attempted++
	switch {
	case err != nil:
		o.fail("%s: %v", key, err)
	case code != http.StatusOK:
		o.fail("%s: status %d: %s", key, code, body)
	case !seen.check(key, body):
		o.fail("%s: response differs from an earlier identical request", key)
	default:
		return true
	}
	return false
}

// bodies checks the byte-identity contract: every response to the same
// request, from any fresh server, must be the same bytes.
type bodies map[string][]byte

// check records the first body for key and reports whether body equals
// it.
func (b bodies) check(key string, body []byte) bool {
	if first, ok := b[key]; ok {
		return bytes.Equal(first, body)
	}
	b[key] = append([]byte(nil), body...)
	return true
}
