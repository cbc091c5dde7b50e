package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runSuite is the suite-cold workload: each pass is one fresh child
// running the experiment registry through experiments.RunMany with a
// fresh profiler pool, every scenario simulated from an empty cache.
// The seed is the provisioning seed. At seed 1 every experiment's
// tables must equal the checked-in experiments_output.txt; at any seed
// every pass must produce the same tables, every claim must hold, and
// the pool's counters must pass audit.CheckStats.
func runSuite(cfg config, o *outcome) error {
	golden, err := loadGolden(cfg.root)
	if err != nil {
		return err
	}
	exps, err := selectExperiments(cfg.experiments)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.setupProbes; i++ {
		time.Sleep(probeGap)
		if _, err := suitePass(cfg, o, "", nil, ""); err != nil {
			return err
		}
	}
	var first map[string]string
	check := func(r *suiteResult, pass string) {
		o.attempted += len(exps)
		for _, id := range sortedKeys(r.Errors) {
			o.fail("%s: experiment %s: %s", pass, id, r.Errors[id])
		}
		for _, e := range exps {
			d, ok := r.Digests[e.ID]
			if !ok {
				continue // reported with its error
			}
			if first == nil || first[e.ID] == "" {
				if cfg.seed == 1 && d != digest(golden[e.ID]) {
					o.fail("%s: %s tables differ from %s", pass, e.ID, goldenFile)
				}
			} else if d != first[e.ID] {
				o.fail("%s: %s tables differ from the first pass", pass, e.ID)
			}
		}
		if first == nil {
			first = r.Digests
		}
		if _, ran := r.Digests["claims"]; ran && r.Claims != paperClaims {
			o.fail("%s: %d of %d paper claims hold", pass, r.Claims, paperClaims)
		}
		for _, v := range r.Audit {
			o.fail("%s: audit: %s", pass, v)
		}
	}

	var render, longest []float64
	b := newBudget(cfg, cfg.suiteMinPasses)
	for i := 0; b.next(); i++ {
		start := now()
		r, err := suitePass(cfg, o, "go", nil, "")
		if err != nil {
			return err
		}
		b.done(start)
		check(r, "pass "+strconv.Itoa(i+1))
		o.layer["report.cells"] = float64(r.Cells)
		render = append(render, float64(r.RenderNS)/1e6)
		longest = append(longest, float64(r.LongestNS)/1e9)
	}
	o.layer["report.render_ms"] = median(render)
	o.layer["experiments.longest_span_s"] = median(longest)

	if cfg.trace {
		tr := &tracer{}
		path := profilePath(cfg)
		r, err := suitePass(cfg, o, "go", tr, path)
		if err != nil {
			return err
		}
		check(r, "traced pass")
		o.tracedWall = float64(r.SuiteNS) / 1e9
		if err := o.addProfile(path); err != nil {
			return err
		}
		return o.writeTrace(cfg, tr)
	}
	return nil
}

// suitePass runs one suite child. With cmd "" it only times the child's
// start into o.setups (a set-up probe); with "go" it runs the pass. A
// traced pass (tr != nil) profiles the child into profile and adopts
// its spans; an untraced pass is recorded in o.passes.
func suitePass(cfg config, o *outcome, cmd string, tr *tracer, profile string) (*suiteResult, error) {
	args := []string{"-child", "suite", "-seed", strconv.FormatInt(cfg.seed, 10), "-ids", strings.Join(cfg.experiments, ",")}
	if tr != nil {
		args = append(args, "-cpuprofile", profile, "-trace", "1")
	}
	c, err := spawn(args...)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	if line, err := c.line(); err != nil || line != "ready" {
		return nil, fmt.Errorf("suite child not ready: %q %v", line, err)
	}
	if cmd == "" {
		o.setups = append(o.setups, now().Sub(c.spawned).Seconds())
		_, _, err := c.finish(false)
		return nil, err
	}
	if err := c.send(cmd); err != nil {
		return nil, err
	}
	passID := tr.reserve(0, "suite pass", "")
	line, use, err := c.finish(true)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return nil, fmt.Errorf("suite child result: %w", err)
	}
	tr.set(passID, c.spawned, c.spawned.Add(use.Elapsed))
	tr.adopt(passID, r.Spans)
	if tr == nil {
		o.passes = append(o.passes, passRec{wall: float64(r.SuiteNS) / 1e9, use: use, mem: r.Mem, sched: r.Sched})
		// What a characterize user waits for: process start to tables.
		o.primary = append(o.primary, ms(use.Elapsed))
	}
	return &r, nil
}

// writeTrace writes the traced pass's spans and per-layer CPU sample
// counts as JSON under cfg.out/trace.
func (o *outcome) writeTrace(cfg config, tr *tracer) error {
	dir := filepath.Join(cfg.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(traceFile{
		Workload: cfg.workload, Seed: cfg.seed, Samples: o.samples, Spans: tr.snapshot(),
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)), data, 0o644)
}

// sortedKeys returns a string-keyed map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
