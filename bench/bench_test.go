package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// workloads re-execute os.Executable() as their children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(cli(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must honor.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyConfig shrinks a workload to a few seconds: one set-up probe and
// the traced pass alone, over two experiments or twenty requests drawn
// from a catalog of three cheap combos.
func tinyConfig(t *testing.T, workload string) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seconds = 0
	cfg.trace = true
	cfg.root = ".."
	cfg.out = t.TempDir()
	cfg.setupProbes = 1
	cfg.experiments = []string{"table2", "fig13"}
	cfg.catalogSize = 3
	cfg.suiteMinPasses = 0
	cfg.mixRequests = 20
	cfg.mixReplays = 2
	cfg.mixMinPasses = 0
	cfg.sweepMinPasses = 0
	cfg.sweepInteractive = 5
	return cfg
}

// TestTinyRunEmitsEveryMetric runs each workload small enough for a
// test and checks that it emits exactly the metrics BENCHMARK.json
// names, with their units, and that nothing but the sample-size rule
// failed: every output oracle passed.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benchmark children")
	}
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w)
			o, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if o.attempted == 0 {
				t.Error("attempted no operations")
			}
			for _, p := range o.problems {
				if !strings.Contains(p, "beyond it") {
					t.Errorf("failure other than sample size: %s", p)
				}
			}
			for _, set := range []struct {
				trace bool
				want  []jsonMetric
			}{{false, b.EndToEnd}, {true, b.PerLayer}} {
				got := o.metrics(cfg, set.trace)
				if len(got) != len(set.want) {
					t.Errorf("trace=%v: emitted %d metrics, BENCHMARK.json names %d", set.trace, len(got), len(set.want))
				}
				for _, m := range set.want {
					v, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not emitted", set.trace, m.Name)
					case v.Unit != m.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s: %v", m.Name, v.Value)
					}
				}
			}
			sum := 0.0
			for _, l := range layers {
				sum += o.metrics(cfg, true)["cpu_share."+l].Value
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("traced pass cpu_share.* sums to %v", sum)
			}
		})
	}
}

// TestCPUShareAttribution charges a synthetic stack set and checks
// the innermost-module-frame rule and that the shares sum to 1.
func TestCPUShareAttribution(t *testing.T) {
	stacks := []stack{
		{[]string{"time.Duration.Seconds", "stash/internal/simnet.(*Network).settle", "stash/internal/core.(*Profiler).simulate"}, 5},
		{[]string{"runtime.mallocgc", "stash/internal/api.encodeJSON", "net/http.(*conn).serve"}, 3},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, 2},
		{[]string{"syscall.Syscall", "net.(*netFD).Read", "net/http.(*conn).serve"}, 4},
		{[]string{"stash/internal/dnn.(*Model).TotalParams"}, 1},
		{[]string{"stash/internal/audit.CheckStats"}, 1},
		{[]string{"main.suiteChild", "runtime.main"}, 1},
		{[]string{"stash/internal/sim.(*Engine).Run.func1"}, 3},
	}
	want := map[string]int64{"simnet": 5, "api": 3, "runtime": 2, "stdlib": 4, "model": 1, "other": 2, "sim": 3}
	o := newOutcome()
	o.samples = layerCounts(stacks)
	for _, l := range layers {
		if o.samples[l] != want[l] {
			t.Errorf("%s: %d samples, want %d", l, o.samples[l], want[l])
		}
	}
	m := o.metrics(defaultConfig(), true)
	sum := 0.0
	for _, l := range layers {
		sum += m["cpu_share."+l].Value
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if got := m["cpu_share.simnet"].Value; math.Abs(got-5.0/20) > 1e-12 {
		t.Errorf("simnet share %v, want 5/20", got)
	}
}

// TestPercentileNeedsTenBeyond checks the ≥10-samples-beyond rule.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) accepted")
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples (9 beyond) accepted")
	}
	if v, err := percentile(xs[:100], 90); err != nil || v != 90 {
		t.Errorf("p90 of 100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

// TestGoldenMatchesRenderedShape checks the golden parser: every
// registry experiment has a section, and sections carry no headers.
func TestGoldenMatchesRenderedShape(t *testing.T) {
	golden, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	exps, err := selectExperiments(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		g, ok := golden[e.ID]
		if !ok {
			t.Errorf("no golden section for %s", e.ID)
			continue
		}
		if strings.Contains(g, "simulated in") || !strings.HasSuffix(g, "\n\n") {
			t.Errorf("%s: golden section not stripped to its tables", e.ID)
		}
	}
	if n := claimsHolding(golden["claims"]); n != paperClaims {
		t.Errorf("golden claims: %d hold, want %d", n, paperClaims)
	}
}
