package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureLoader builds one loader rooted at this module so fixtures can
// import real repo packages (internal/report) alongside the stdlib.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, path, err := ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	return NewLoader(root, path)
}

func loadFixture(t *testing.T, l *Loader, name string) *Package {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(wd, "testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// TestFixtures runs each analyzer over its testdata package and checks
// the diagnostics against the // want annotations, analysistest-style.
func TestFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
	}{
		{Wallclock, "wallclock"},
		{MapOrder, "maporder"},
		{LockHeld, "lockheld"},
		{LockHeld, "lockorder"},
		{CtxFlow, "ctxflow"},
		{LockHeld, "allowscope"},
		{FloatCmp, "floatcmp"},
	}
	l := fixtureLoader(t)
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			pkg := loadFixture(t, l, c.fixture)
			for _, err := range CheckFixture(pkg, c.analyzer) {
				t.Error(err)
			}
		})
	}
}

// TestAllowRequiresReason is the escape-hatch-of-the-escape-hatch: a
// bare //lint:allow wallclock with no reason string must not suppress
// the finding and must itself be reported.
func TestAllowRequiresReason(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "allowreason")
	for _, err := range CheckFixture(pkg, Wallclock) {
		t.Error(err)
	}

	// Belt and braces beyond the want annotations: the malformed
	// directive must be present and produce exactly one
	// missing-reason diagnostic plus two unsuppressed findings.
	if !fixtureHasAllow(pkg, "wallclock") {
		t.Fatal("fixture lost its //lint:allow directive")
	}
	diags := Run(pkg, []*Analyzer{Wallclock})
	var missing, findings int
	for _, d := range diags {
		if d.Analyzer != "wallclock" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
		if strings.Contains(d.Message, "needs a reason") {
			missing++
		} else {
			findings++
		}
	}
	if missing != 1 || findings != 2 {
		t.Errorf("got %d missing-reason and %d findings, want 1 and 2: %v", missing, findings, diags)
	}
}

// TestSuiteRegistry pins the analyzer set: CI prints this list, and the
// allow annotations in the tree reference these names.
func TestSuiteRegistry(t *testing.T) {
	want := []string{"wallclock", "maporder", "lockheld", "ctxflow", "floatcmp"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
		if ByName(want[i]) != a {
			t.Errorf("ByName(%q) did not round-trip", want[i])
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown name should be nil")
	}
}

// TestRepoIsClean runs the full suite over the whole module — the same
// gate ci.sh enforces via cmd/stashlint, kept here so a plain `go test
// ./...` also proves the tree is violation-free.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow; run without -short")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, path, err := ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root, path).Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("fixture package %s leaked into the module walk", pkg.Path)
		}
	}
	// One program over the whole module, so the interprocedural
	// analyzers see every cross-package call chain — the same shape
	// cmd/stashlint runs in CI.
	for _, d := range RunAll(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestProgramConvergesOnRecursion is the regression test for the
// summary fixed point: the ctxflow fixture contains self- and
// mutually-recursive functions that reach a context-free API with a
// *Context sibling, and BuildProgram must still terminate (the example
// chain is frozen at first taint — a chain rebuilt per iteration grows
// by one frame per round on a cycle and the fixed point never closes).
// A regression here shows up as this test hanging until the go test
// timeout; the assertions below additionally pin the frozen chains.
func TestProgramConvergesOnRecursion(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "ctxflow")
	prog := BuildProgram([]*Package{pkg})
	byName := make(map[string]*funcFacts)
	for _, ff := range prog.order {
		byName[ff.fn.Name()] = ff
	}
	for name, wantFirst := range map[string]string{"walk": "fetch", "pingPongB": "pingPongA"} {
		ff := byName[name]
		if ff == nil {
			t.Fatalf("fixture function %s not summarized", name)
		}
		if !ff.ctxTainted {
			t.Errorf("%s should be ctx-tainted", name)
		}
		// The frozen chain is finite and free of the growth artifact: a
		// recursive frame never stacks itself.
		if len(ff.ctxChain) > len(prog.order) {
			t.Errorf("%s chain grew past the function count (%d frames): %v", name, len(ff.ctxChain), ff.ctxChain)
		}
		if len(ff.ctxChain) == 0 || !strings.HasPrefix(ff.ctxChain[0], wantFirst) {
			t.Errorf("%s chain = %v, want first frame %q", name, ff.ctxChain, wantFirst)
		}
		for i := 1; i < len(ff.ctxChain); i++ {
			if ff.ctxChain[i] == ff.ctxChain[i-1] {
				t.Errorf("%s chain repeats a frame: %v", name, ff.ctxChain)
			}
		}
	}
	if ff := byName["spinA"]; ff == nil || ff.ctxTainted {
		t.Errorf("spinA (recursion with no tainting leaf) should be summarized and untainted")
	}
}

// TestLockSummaryConvergesOnRecursion: pingLock and pongLock in the
// lockheld fixture call each other and only pingLock takes a lock.
// BuildProgram must still terminate (only whether a lock name exists
// takes part in the fixed point), both must summarize as acquiring, and
// a caller holding a lock gets a finding naming one of them.
func TestLockSummaryConvergesOnRecursion(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "lockheld")
	prog := BuildProgram([]*Package{pkg})
	byName := make(map[string]*funcFacts)
	for _, ff := range prog.order {
		byName[ff.fn.Name()] = ff
	}
	for _, name := range []string{"pingLock", "pongLock"} {
		if ff := byName[name]; ff == nil || ff.lock != "global" {
			t.Errorf("%s should summarize as locking global, got %+v", name, ff)
		}
	}
	var found bool
	for _, d := range RunPackage(prog, pkg, []*Analyzer{LockHeld}) {
		if strings.Contains(d.Message, "call to pongLock may lock global while g.mu is locked") {
			found = true
		}
	}
	if !found {
		t.Error("the caller holding g.mu got no finding naming the recursive helpers")
	}
}

// TestAllowScopeInterprocedural pins the scoping contract directly (the
// want annotations in testdata/src/allowscope cover it fixture-style):
// a callee-side allow must not suppress the caller-side finding derived
// from the callee's summary, and vice versa.
func TestAllowScopeInterprocedural(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "allowscope")
	if !fixtureHasAllow(pkg, "lockheld") {
		t.Fatal("fixture lost its //lint:allow directives")
	}
	diags := Run(pkg, []*Analyzer{LockHeld})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (caller-side and callee-side): %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "a critical section takes no other lock") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !strings.Contains(diags[0].Message, "call to lockBQuiet") && !strings.Contains(diags[1].Message, "call to lockBQuiet") {
		t.Errorf("missing the interprocedural caller-side finding: %v", diags)
	}
}

// TestRunPackageObserved: the hook fires once per analyzer in roster
// order, the findings match a plain RunPackage over the same program
// (one shared allow index, no per-analyzer rebuild), and a nil hook
// degrades to RunPackage.
func TestRunPackageObserved(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "lockheld")
	analyzers := All()
	prog := BuildProgram([]*Package{pkg})
	plain := RunPackage(prog, pkg, analyzers)
	if len(plain) == 0 {
		t.Fatal("the fixture has no findings, so comparing runs proves nothing")
	}

	var seen []int
	observed := RunPackageObserved(prog, pkg, analyzers, func(i int, run func()) {
		seen = append(seen, i)
		run()
	})
	if len(seen) != len(analyzers) {
		t.Fatalf("observe fired %d times, want %d", len(seen), len(analyzers))
	}
	for i, j := range seen {
		if i != j {
			t.Errorf("observe order %v, want roster order", seen)
			break
		}
	}
	if len(observed) != len(plain) {
		t.Fatalf("observed run found %d diagnostics, plain run %d", len(observed), len(plain))
	}
	for i := range observed {
		if observed[i] != plain[i] {
			t.Errorf("diagnostic %d differs: %v vs %v", i, observed[i], plain[i])
		}
	}
	if nilHook := RunPackageObserved(prog, pkg, analyzers, nil); len(nilHook) != len(plain) {
		t.Errorf("nil-hook run found %d diagnostics, want %d", len(nilHook), len(plain))
	}
}

// TestStaleAllows: a directive that suppressed a finding is kept, one
// that suppressed nothing is reported at its own position.
func TestStaleAllows(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "staleallow")
	stale := StaleAllows([]*Package{pkg}, []*Analyzer{Wallclock, LockHeld})
	if len(stale) != 1 {
		t.Fatalf("got %d stale directives, want 1: %v", len(stale), stale)
	}
	d := stale[0]
	if d.Analyzer != "wallclock" || !strings.Contains(d.Message, "stale //lint:allow wallclock") {
		t.Errorf("unexpected stale diagnostic: %s", d)
	}
	// The live directive sits above time.Now (line 12); the stale one
	// must be the other, later directive.
	if d.Pos.Line <= 12 {
		t.Errorf("stale diagnostic points at the live directive: %s", d)
	}
}

// TestStaleAllowsIgnoresOtherAnalyzers: running a subset proves nothing
// about directives naming analyzers outside it.
func TestStaleAllowsIgnoresOtherAnalyzers(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "staleallow")
	if stale := StaleAllows([]*Package{pkg}, []*Analyzer{LockHeld}); len(stale) != 0 {
		t.Errorf("stale findings for analyzers that did not run: %v", stale)
	}
}
