// Command stashlint is the repository's static determinism and
// concurrency gate: a multichecker over the internal/lint analyzer
// suite, run by scripts/ci.sh between go vet and the build.
//
// Usage:
//
//	stashlint [-list] [-staleallows] [-timing] [pattern ...]
//
// Patterns are module-root-relative package patterns ("./...",
// "./internal/core", "./internal/..."); the default is "./...".
// -list prints the suite version and the analyzer roster (what the CI
// gate log pins) and exits. -staleallows runs the suite and reports
// every //lint:allow directive that no longer suppresses a finding,
// so exemptions cannot outlive the code they excused. -timing prints
// per-analyzer wall time, summed across packages, after the findings.
//
// The five analyzers share one interprocedural program (a module-wide
// call graph whose function summaries record whether a function may
// take a lock and whether it reaches a context-free API with a
// *Context sibling); package analysis then fans out across
// GOMAXPROCS workers, with findings reported in deterministic package
// order regardless of completion order.
//
// Exit status: 0 when the tree is clean, 1 when any analyzer reports a
// finding (or, under -staleallows, any directive is stale), 2 on usage
// or load errors.
//
// Findings are suppressed per site with
//
//	//lint:allow <analyzer> <reason>
//
// on or directly above the flagged line; the reason is mandatory and a
// bare directive is itself a finding.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stash/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("stashlint", flag.ContinueOnError)
	fs.SetOutput(errw)
	list := fs.Bool("list", false, "print suite version and analyzers, then exit")
	staleAllows := fs.Bool("staleallows", false, "report //lint:allow directives that no longer suppress a finding")
	timing := fs.Bool("timing", false, "print per-analyzer wall time summed across packages")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprint(out, listSuite())
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errw, "stashlint:", err)
		return 2
	}
	root, modPath, err := lint.ModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(errw, "stashlint:", err)
		return 2
	}

	loader := lint.NewLoader(root, modPath)
	pkgs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(errw, "stashlint:", err)
		return 2
	}

	if *staleAllows {
		stale := lint.StaleAllows(pkgs, lint.All())
		for _, d := range stale {
			fmt.Fprintf(errw, "%s: %s: %s\n", relPos(wd, d.Pos), d.Analyzer, d.Message)
		}
		if len(stale) > 0 {
			fmt.Fprintf(errw, "stashlint: %d stale allow directive(s) in %d packages\n", len(stale), len(pkgs))
			return 1
		}
		fmt.Fprintf(out, "stashlint: all //lint:allow directives in %d packages are live\n", len(pkgs))
		return 0
	}

	analyzers := lint.All()
	results, elapsed := analyze(pkgs, analyzers)

	count := 0
	for _, diags := range results {
		for _, d := range diags {
			fmt.Fprintf(errw, "%s: %s: %s\n", relPos(wd, d.Pos), d.Analyzer, d.Message)
			count++
		}
	}
	if *timing {
		fmt.Fprintf(out, "stashlint timing over %d packages (wall time per analyzer, summed):\n", len(pkgs))
		for i, a := range analyzers {
			fmt.Fprintf(out, "  %-10s %s\n", a.Name, elapsed[i].Round(10*time.Microsecond))
		}
	}
	if count > 0 {
		fmt.Fprintf(errw, "stashlint: %d finding(s) in %d packages\n", count, len(pkgs))
		return 1
	}
	return 0
}

// analyze builds one interprocedural program over all packages, then
// fans package analysis out across GOMAXPROCS workers. Findings come
// back indexed by package so output order matches load order, and each
// analyzer's wall time is accumulated across workers.
func analyze(pkgs []*lint.Package, analyzers []*lint.Analyzer) ([][]lint.Diagnostic, []time.Duration) {
	prog := lint.BuildProgram(pkgs)
	results := make([][]lint.Diagnostic, len(pkgs))
	nanos := make([]int64, len(analyzers))

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *lint.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = lint.RunPackageObserved(prog, pkg, analyzers, func(j int, run func()) {
				start := time.Now() //lint:allow wallclock measuring analyzer wall time for the -timing report, not simulation state
				run()
				atomic.AddInt64(&nanos[j], int64(time.Since(start))) //lint:allow wallclock measuring analyzer wall time for the -timing report, not simulation state
			})
		}(i, pkg)
	}
	wg.Wait()

	elapsed := make([]time.Duration, len(analyzers))
	for j := range nanos {
		elapsed[j] = time.Duration(nanos[j])
	}
	return results, elapsed
}

// relPos rewrites an absolute diagnostic position relative to wd when
// it lies under it, keeping gate logs readable.
func relPos(wd string, pos token.Position) string {
	if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		pos.Filename = rel
	}
	return pos.String()
}

// listSuite renders the version/roster block ci.sh prints into the
// gate log so every CI run records exactly what was enforced.
func listSuite() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stashlint %s — static determinism & concurrency analyzers\n", lint.Version)
	for _, a := range lint.All() {
		fmt.Fprintf(&b, "  %-10s %s\n", a.Name, firstClause(a.Doc))
	}
	return b.String()
}

// firstClause trims an analyzer doc to its headline for the roster.
func firstClause(doc string) string {
	if i := strings.IndexByte(doc, ':'); i > 0 {
		return doc[:i]
	}
	return doc
}
