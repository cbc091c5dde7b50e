package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"stash/internal/report"
)

// renderAll concatenates every table of an experiment run into one
// string, the byte-level artifact the determinism guarantee covers.
func renderAll(t *testing.T, cfg Config, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
		b.WriteString(tb.CSV())
	}
	return b.String()
}

// TestParallelOutputByteIdentical is the scheduler's core contract:
// rendered tables are byte-identical between the serial path and a wide
// worker pool, for a representative figure and for the claim sweep. Each
// side owns its pool, so the comparison is between independent
// simulations, not replays of one scenario cache.
func TestParallelOutputByteIdentical(t *testing.T) {
	serialCfg, parallelCfg := NewConfig(4, 1, 1), NewConfig(4, 1, 8)
	for _, id := range []string{"fig11", "claims", "fig13", "network-variance"} {
		serial := renderAll(t, serialCfg, id)
		parallel := renderAll(t, parallelCfg, id)
		if serial != parallel {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

// TestRunManyOrderAndSharing checks the registry runner: results come
// back in input order and reuse the configuration's pool.
func TestRunManyOrderAndSharing(t *testing.T) {
	cfg := NewConfig(4, 1, 4)
	exps := []Experiment{}
	for _, id := range []string{"table1", "fig7", "table2", "multi-epoch"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	results := RunMany(cfg, exps)
	if len(results) != len(exps) {
		t.Fatalf("got %d results, want %d", len(results), len(exps))
	}
	for i, r := range results {
		if r.Experiment.ID != exps[i].ID {
			t.Errorf("result %d is %s, want %s (order not preserved)", i, r.Experiment.ID, exps[i].ID)
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.Experiment.ID, r.Err)
		}
		if len(r.Tables) == 0 {
			t.Errorf("%s: no tables", r.Experiment.ID)
		}
	}
	if st := cfg.Pool.Stats(); st.Simulated == 0 {
		t.Error("pool saw no simulations — experiments not sharing it")
	}
}

// TestRunManyReportsPerExperimentErrors: a failing experiment must not
// abort its siblings — its error is carried in its own result slot.
func TestRunManyReportsPerExperimentErrors(t *testing.T) {
	errBoom := errors.New("boom")
	bad := Experiment{ID: "boom", Title: "always fails", Run: func(Config) ([]*report.Table, error) {
		return nil, errBoom
	}}
	good, err := ByID("fig7")
	if err != nil {
		t.Fatal(err)
	}
	results := RunMany(Config{Iterations: 4, Seed: 1, Parallelism: 4}, []Experiment{bad, good})
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if !errors.Is(results[0].Err, errBoom) {
		t.Errorf("bad experiment error = %v, want boom", results[0].Err)
	}
	if results[1].Err != nil || len(results[1].Tables) == 0 {
		t.Errorf("sibling experiment aborted: err=%v tables=%d", results[1].Err, len(results[1].Tables))
	}
}

func TestConfigNormalizeParallelism(t *testing.T) {
	// "0 or negative = GOMAXPROCS" is core.WithParallelism's contract;
	// this layer must not remap negative to serial (the pre-fix bug).
	if got := (Config{Parallelism: -3}).normalize().Parallelism; got != 0 {
		t.Errorf("negative Parallelism normalized to %d, want 0 (GOMAXPROCS at pool)", got)
	}
	if got := (Config{}).normalize().Parallelism; got != 0 {
		t.Errorf("zero Parallelism normalized to %d, want 0 (GOMAXPROCS at pool)", got)
	}
}

// sanity: forEach propagates the lowest-index error through a grid.
func TestForEachErrorDeterministic(t *testing.T) {
	cfg := Config{Parallelism: 8}
	for trial := 0; trial < 5; trial++ {
		err := cfg.forEach(10, func(i int) error {
			if i >= 4 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 4 failed" {
			t.Fatalf("trial %d: got %v, want cell 4's error", trial, err)
		}
	}
}
