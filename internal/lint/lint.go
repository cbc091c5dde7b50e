// Package lint is stashlint's analyzer suite: five static analyzers
// that prove, at compile time, the invariants this repository otherwise
// only checks dynamically (internal/audit, go test -race). The headline
// guarantee — byte-identical stall tables serial-vs-parallel and
// run-vs-rerun — survives only if no wall-clock read, unsorted map
// iteration, or wait or nested lock inside a critical section ever
// reaches a release; these analyzers reject that class of bug before
// it can fire on some schedule.
//
// Two of the analyzers are interprocedural: RunAll builds a Program —
// a module-wide call graph over go/types with per-function summaries
// (whether a function may acquire a lock, whether it reaches a
// context-free API with a *Context sibling) computed to a monotone
// fixed point — and lockheld and ctxflow consult those summaries at
// every call site, so a lock taken under another lock or a detached
// context hidden three frames down is still a compile-time finding.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, testdata fixtures with // want
// annotations) but is built on the standard library's go/ast and
// go/types only, so the suite works in the hermetic build environment
// with no module downloads.
//
// Suppression: a finding may be silenced with a trailing or
// line-above comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a bare //lint:allow <analyzer> is itself a
// diagnostic, so every exemption in the tree documents why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Version identifies the analyzer suite in CI gate logs. Bump it when
// an analyzer's semantics change so a log line pins exactly what was
// enforced for a given commit.
const Version = "1.5.0"

// An Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //lint:allow annotations.
	Name string

	// Doc is a one-paragraph description: the invariant encoded and
	// why the runtime checks alone are insufficient.
	Doc string

	// Run inspects one type-checked package and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, MapOrder, LockHeld, CtxFlow, FloatCmp}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Diagnostic is one finding, positioned and attributed to its
// analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one type-checked package through one analyzer run.
// Prog is the interprocedural layer shared by every package of the
// run; the cross-function analyzers (lockheld, ctxflow) read
// call-graph summaries from it while still reporting per package, so
// allow-directive scoping stays line-local.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Prog     *Program

	allow *allowIndex
	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an allow annotation with a
// reason covers that line for this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allows(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers over one loaded package and returns
// the findings sorted by position. Malformed allow annotations (no
// reason) surface as diagnostics of the analyzer they name. The
// interprocedural program is built from this package alone; use RunAll
// to resolve call chains that cross package boundaries.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunAll([]*Package{pkg}, analyzers)
}

// RunAll executes the analyzers over every package as one program: the
// call-graph summaries span all of pkgs, so a nested lock or a detached
// context threaded through three packages is still seen, while each
// finding is reported (and allow-suppressed) in the package that
// contains it. The packages must come from one Loader.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := BuildProgram(pkgs)
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, RunPackage(prog, pkg, analyzers)...)
	}
	return out
}

// RunPackage executes the analyzers over one package of an
// already-built program and returns that package's findings sorted by
// position. It is safe to call concurrently for different packages of
// the same program, which is how cmd/stashlint parallelizes the gate.
func RunPackage(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	allow := buildAllowIndex(pkg.Fset, pkg.Files)
	return runPackageWith(prog, pkg, analyzers, allow)
}

// RunPackageObserved is RunPackage with a per-analyzer hook: observe is
// invoked once per analyzer (in roster order) and must call run() to
// execute it. The allow index is built once for the whole package, so
// callers that time analyzers individually — cmd/stashlint's -timing —
// do not re-parse the package's comments per analyzer. A nil observe
// behaves exactly like RunPackage.
func RunPackageObserved(prog *Program, pkg *Package, analyzers []*Analyzer, observe func(i int, run func())) []Diagnostic {
	allow := buildAllowIndex(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for i, a := range analyzers {
		run := func() { runOneAnalyzer(prog, pkg, a, allow, &diags) }
		if observe != nil {
			observe(i, run)
		} else {
			run()
		}
	}
	SortDiagnostics(diags)
	return diags
}

func runPackageWith(prog *Program, pkg *Package, analyzers []*Analyzer, allow *allowIndex) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		runOneAnalyzer(prog, pkg, a, allow, &diags)
	}
	SortDiagnostics(diags)
	return diags
}

// runOneAnalyzer executes one analyzer over one package, appending its
// findings (malformed-directive diagnostics included) to diags.
func runOneAnalyzer(prog *Program, pkg *Package, a *Analyzer, allow *allowIndex, diags *[]Diagnostic) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Prog:     prog,
		allow:    allow,
		diags:    diags,
	}
	for _, bad := range allow.malformed(a.Name) {
		*diags = append(*diags, Diagnostic{
			Pos:      bad,
			Analyzer: a.Name,
			Message:  fmt.Sprintf("//lint:allow %s needs a reason: //lint:allow %s <why this site is safe>", a.Name, a.Name),
		})
	}
	a.Run(pass)
}

// SortDiagnostics orders findings by file, line, column, then analyzer
// — the stable order every entry point reports in.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		if diags[i].Pos.Column != diags[j].Pos.Column {
			return diags[i].Pos.Column < diags[j].Pos.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// StaleAllows runs the analyzers over every package as one program and
// returns a diagnostic for each well-formed //lint:allow directive that
// suppressed nothing — the directive outlived the finding it excused
// and should be removed. Directives naming analyzers outside the run
// set are left alone (a partial run proves nothing about them).
func StaleAllows(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := BuildProgram(pkgs)
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	var stale []Diagnostic
	for _, pkg := range pkgs {
		allow := buildAllowIndex(pkg.Fset, pkg.Files)
		runPackageWith(prog, pkg, analyzers, allow)
		for _, d := range allow.all {
			if d.reason != "" && names[d.analyzer] && !d.used {
				stale = append(stale, Diagnostic{
					Pos:      d.pos,
					Analyzer: d.analyzer,
					Message:  fmt.Sprintf("stale //lint:allow %s: the analyzer no longer reports at this site; remove the directive", d.analyzer),
				})
			}
		}
	}
	SortDiagnostics(stale)
	return stale
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// funcFor resolves the called function or method behind a call
// expression, seeing through parentheses. Returns nil for builtins,
// conversions and calls of function-typed variables.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
