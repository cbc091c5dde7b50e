package experiments

import (
	"fmt"
	"strings"
	"testing"

	"stash/internal/cloud"
	"stash/internal/core"
	"stash/internal/report"
)

// fastConfig is built once so the package's experiment tests share one
// scenario cache.
var fastConfig = NewConfig(4, 1, 0)

// fastCfg keeps experiment tests quick; stall ratios are deterministic
// steady-state values, so a short window is exact.
func fastCfg() Config { return fastConfig }

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 26 {
		t.Fatalf("registry has %d experiments, want 26", len(reg))
	}
	wantIDs := []string{
		"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"large-on-p2", "bert-24xl", "ps-vs-allreduce",
		"ablate-overlap", "ablate-bucket", "ablate-compression",
		"slice-lottery", "multi-epoch", "p4-preview", "network-variance",
		"claims",
	}
	for i, want := range wantIDs {
		if reg[i].ID != want {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, want)
		}
		if reg[i].Title == "" || reg[i].Run == nil {
			t.Errorf("%s: incomplete registration", want)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig7")
	if err != nil || e.ID != "fig7" {
		t.Errorf("ByID(fig7) = %v, %v", e.ID, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("ByID(fig99) should fail")
	}
}

func TestTableI(t *testing.T) {
	tables, err := TableI(fastCfg())
	if err != nil {
		t.Fatalf("TableI: %v", err)
	}
	if len(tables) != 1 || tables[0].NumRows() != 8 {
		t.Fatalf("Table I shape wrong: %d tables, %d rows", len(tables), tables[0].NumRows())
	}
	s := tables[0].String()
	for _, want := range []string{"p2.16xlarge", "p3.24xlarge", "$24.48", "NVSwitch"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTableII(t *testing.T) {
	tables, err := TableII(fastCfg())
	if err != nil {
		t.Fatalf("TableII: %v", err)
	}
	if tables[0].NumRows() != 8 {
		t.Fatalf("Table II rows = %d, want 8", tables[0].NumRows())
	}
	s := tables[0].String()
	for _, want := range []string{"bert-large", "squad2", "132.86M"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

// checkTables asserts the structural invariants every figure experiment
// must satisfy: at least one table, every table titled, every row full.
func checkTables(t *testing.T, tables []*report.Table, wantTables, wantRowsEach int) {
	t.Helper()
	if len(tables) != wantTables {
		t.Fatalf("got %d tables, want %d", len(tables), wantTables)
	}
	for ti, tb := range tables {
		if tb.Title == "" {
			t.Errorf("table %d untitled", ti)
		}
		if tb.NumRows() != wantRowsEach {
			t.Errorf("table %d (%s) has %d rows, want %d", ti, tb.Title, tb.NumRows(), wantRowsEach)
		}
		for ri, row := range tb.Rows() {
			if len(row) != len(tb.Columns) {
				t.Errorf("table %d row %d has %d cells, want %d", ti, ri, len(row), len(tb.Columns))
			}
			for ci, cell := range row {
				if cell == "" {
					t.Errorf("table %d (%s) row %d col %d empty", ti, tb.Title, ri, ci)
				}
			}
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tables, err := Fig4(fastCfg())
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	// 2 batch sizes x (cpu, disk), 5 small models each.
	checkTables(t, tables, 4, 5)
}

func TestFig5Shape(t *testing.T) {
	tables, err := Fig5(fastCfg())
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	checkTables(t, tables, 4, 5)
	// The headline finding must be visible in the rendered table: the
	// p2.16xlarge column exists.
	if !strings.Contains(tables[0].String(), "p2.16xlarge") {
		t.Error("Fig5 P2 table missing 16xlarge column")
	}
}

func TestFig6Shape(t *testing.T) {
	tables, err := Fig6(fastCfg())
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	checkTables(t, tables, 4, 5)
}

func TestFig7Shape(t *testing.T) {
	tables, err := Fig7(fastCfg())
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	checkTables(t, tables, 1, 3)
	s := tables[0].String()
	if !strings.Contains(s, "below 25 Gbps") {
		t.Errorf("Fig7 should flag 16xlarge below network rating:\n%s", s)
	}
}

func TestFig8Shape(t *testing.T) {
	tables, err := Fig8(fastCfg())
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	checkTables(t, tables, 4, 5)
}

func TestFig9Shape(t *testing.T) {
	tables, err := Fig9(fastCfg())
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	// resnet50 x2 batches, vgg11 x2, bert = 5 rows; cpu + disk tables.
	checkTables(t, tables, 2, 5)
}

func TestFig10Shape(t *testing.T) {
	tables, err := Fig10(fastCfg())
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	checkTables(t, tables, 4, 5)
}

func TestFig11Shape(t *testing.T) {
	tables, err := Fig11(fastCfg())
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	checkTables(t, tables, 3, 5)
}

func TestFig12Shape(t *testing.T) {
	tables, err := Fig12(fastCfg())
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	checkTables(t, tables, 2, 5)
}

func TestFig13Shape(t *testing.T) {
	tables, err := Fig13(fastCfg())
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	checkTables(t, tables, 1, 4)
	if got := len(tables[0].Columns); got != 5 {
		t.Errorf("Fig13 columns = %d, want 5 (batch + 2 models x 2 slice outcomes)", got)
	}
}

func TestFig14Shape(t *testing.T) {
	tables, err := Fig14(fastCfg())
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	checkTables(t, tables, 2, 5)
}

func TestFig15Shape(t *testing.T) {
	tables, err := Fig15(fastCfg())
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	checkTables(t, tables, 1, 6) // 2 models x 3 batch sizes
}

func TestFig16Shape(t *testing.T) {
	tables, err := Fig16(fastCfg())
	if err != nil {
		t.Fatalf("Fig16: %v", err)
	}
	// 5 resnet depths x 3 variants + 4 vgg depths = 19 rows, IC + NW.
	checkTables(t, tables, 2, 19)
}

func TestCaseStudies(t *testing.T) {
	for _, id := range []string{"large-on-p2", "bert-24xl", "ps-vs-allreduce"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(fastCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) != 1 || tables[0].NumRows() < 2 {
			t.Errorf("%s: unexpected shape", id)
		}
	}
}

func TestExtensionExperiments(t *testing.T) {
	shapes := map[string]struct{ tables, rows int }{
		"ablate-overlap":     {1, 2},
		"ablate-bucket":      {1, 4},
		"ablate-compression": {1, 4},
		"slice-lottery":      {1, 1},
		"multi-epoch":        {1, 5},
		"p4-preview":         {1, 4},
		"network-variance":   {1, 3},
	}
	for id, want := range shapes {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(fastCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkTables(t, tables, want.tables, want.rows)
	}
}

func TestMultiEpochColdOnlyFirst(t *testing.T) {
	tables, err := MultiEpoch(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows()
	if rows[0][2] == "0s" {
		t.Error("first epoch should have a fetch component")
	}
	for _, row := range rows[1:] {
		if row[2] != "0s" {
			t.Errorf("epoch %s still shows fetch stall %s", row[0], row[2])
		}
		if row[3] == "0s" {
			t.Errorf("epoch %s lost its comm component", row[0])
		}
	}
}

func TestCompressionAblationMonotone(t *testing.T) {
	tables, err := AblateCompression(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows()
	// Speedup column strictly increases with compression.
	prev := 0.0
	for _, row := range rows {
		var speed float64
		if _, err := fmt.Sscanf(row[3], "%fx", &speed); err != nil {
			t.Fatalf("bad speedup cell %q", row[3])
		}
		if speed < prev {
			t.Errorf("speedup not monotone: %v after %v", speed, prev)
		}
		prev = speed
	}
}

func TestClaimsAllHold(t *testing.T) {
	tables, err := Claims(fastCfg())
	if err != nil {
		t.Fatalf("Claims: %v", err)
	}
	checkTables(t, tables, 1, 11)
	for _, row := range tables[0].Rows() {
		if row[3] != "HOLDS" {
			t.Errorf("%s: %s -> %s", row[0], row[2], row[3])
		}
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Iterations < 1 || c.Seed == 0 {
		t.Errorf("normalize() = %+v", c)
	}
}

// TestNewConfigOwnsItsPool: every NewConfig builds its own pool, even
// for equal arguments, and profiler() hands that pool to option-free
// callers only.
func TestNewConfigOwnsItsPool(t *testing.T) {
	a, b := NewConfig(4, 1, 0), NewConfig(4, 1, 0)
	if a.Pool == nil || a.Pool == b.Pool {
		t.Error("two NewConfig calls with equal arguments share a pool")
	}
	if a.profiler() != a.Pool {
		t.Error("profiler() without options must return the config's pool")
	}
	if a.profiler(core.WithSlicePolicy(cloud.SliceClean)) == a.Pool {
		t.Error("profiler(opts...) must build a fresh profiler")
	}
	bare := Config{Iterations: 4, Seed: 1}
	if bare.profiler() == bare.profiler() {
		t.Error("a Config without a pool must not share profilers between calls")
	}
	if c := NewConfig(0, 0, -3); c.Iterations != 12 || c.Seed != 1 || c.Parallelism != 0 {
		t.Errorf("NewConfig(0, 0, -3) = {%d %d %d}, want normalized {12 1 0}", c.Iterations, c.Seed, c.Parallelism)
	}
}
