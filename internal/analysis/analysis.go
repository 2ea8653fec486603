// Package analysis is a minimal, dependency-free reimplementation of the
// core of golang.org/x/tools/go/analysis: just enough driver, loader and
// test harness to run catnap's custom static checks (see the analyzer
// subpackages and cmd/catnap-lint) from the standard toolchain alone.
//
// The repository builds hermetically — no module downloads — so the real
// x/tools framework cannot be vendored; the API here mirrors its shape
// (Analyzer, Pass, Diagnostic, analysistest-style golden tests) so the
// analyzers port to the upstream framework mechanically if the dependency
// ever becomes available. Type information comes from the gc export data
// that `go list -export` materialises in the build cache, read through
// go/importer's lookup hook; syntax comes from go/parser. Only non-test
// files are analyzed: the contracts checked here (determinism, zero-alloc
// stepping, quiescent-only reachability, reset coverage) bind the
// simulator proper, not its tests.
//
// Suppression: a finding on line N is silenced by a comment
//
//	//lint:ignore <analyzer> <reason>
//
// placed at the end of line N or alone on line N-1. The reason is
// mandatory; catnap-lint reports malformed ignore directives instead of
// honouring them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer describes one static check. It mirrors the x/tools type of the
// same name: Run inspects a single package via the Pass and reports
// findings through pass.Report / pass.Reportf. Analyzers that need a
// whole-package-set view (the call-graph contract propagation) set
// RunModule instead; exactly one of Run and RunModule must be non-nil.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph help text shown by catnap-lint -help.
	Doc string
	// Run performs the check on one package. Nil for module analyzers.
	Run func(*Pass) error
	// RunModule performs the check once over the entire loaded package
	// set. Module analyzers see cross-package structure (the call
	// graph); their diagnostics still go through the same per-file
	// //lint:ignore filtering as per-package findings.
	RunModule func(*ModulePass) error
}

// ModulePass carries a module analyzer's view of the whole package set
// and the Report sink. Valid only for the duration of RunModule.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	// Report delivers one finding. The driver installs it.
	Report func(Diagnostic)

	funcDecls map[*types.Func]*ast.FuncDecl
}

// Reportf reports a finding at pos with a Sprintf-formatted message.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// FuncDeclOf resolves a function or method object back to its
// declaration anywhere in the loaded package set, or nil for objects
// declared outside it (or synthesized).
func (p *ModulePass) FuncDeclOf(fn *types.Func) *ast.FuncDecl {
	if p.funcDecls == nil {
		p.funcDecls = make(map[*types.Func]*ast.FuncDecl)
		for _, pkg := range p.Pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						p.funcDecls[obj] = fd
					}
				}
			}
		}
	}
	return p.funcDecls[fn]
}

// Pass carries one analyzer's view of one package: syntax, type
// information, and the Report sink. A Pass is valid only for the duration
// of the Analyzer.Run call it is passed to.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver installs it.
	Report func(Diagnostic)

	funcDecls map[*types.Func]*ast.FuncDecl
}

// Reportf reports a finding at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. Analyzer is filled
// in by the driver.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// FuncDeclOf resolves a function or method object back to its declaration
// in this package, or nil for objects declared elsewhere (or synthesized).
// Analyzers use it to read annotations off a callee's doc comment.
func (p *Pass) FuncDeclOf(fn *types.Func) *ast.FuncDecl {
	if p.funcDecls == nil {
		p.funcDecls = make(map[*types.Func]*ast.FuncDecl)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					p.funcDecls[obj] = fd
				}
			}
		}
	}
	return p.funcDecls[fn]
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics (after //lint:ignore filtering) sorted by position. The
// error aggregates malformed ignore directives and directives that
// suppressed nothing (a stale ignore is a lie about the code and must be
// deleted); diagnostics are returned even when it is non-nil.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunTimed(pkgs, analyzers)
	return diags, err
}

// Timing records one analyzer's cumulative wall time across the whole
// run (all packages for per-package analyzers, the single module pass
// for module analyzers).
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// RunTimed is Run plus a per-analyzer wall-time breakdown, in the order
// the analyzers were given (`catnap-lint -time` prints it so slow checks
// are attributable).
//
// Ignore directives are collected across the whole package set before
// any analyzer runs, so module analyzers — which report diagnostics in
// any loaded file — get the same suppression semantics as per-package
// ones, and the stale-ignore sweep runs exactly once at the end.
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	ignores, errs := collectAllIgnores(pkgs)
	var all []Diagnostic
	timings := make([]Timing, len(analyzers))
	for i, a := range analyzers {
		timings[i].Name = a.Name
	}
	report := func(a *Analyzer, fset *token.FileSet) func(Diagnostic) {
		return func(d Diagnostic) {
			d.Analyzer = a.Name
			if ignores.suppresses(fset, d) {
				return
			}
			all = append(all, d)
		}
	}
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    report(a, pkg.Fset),
			}
			start := time.Now()
			if err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %s: %v", pkg.Path, a.Name, err))
			}
			timings[i].Elapsed += time.Since(start)
		}
	}
	if len(pkgs) > 0 {
		for i, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			mp := &ModulePass{
				Analyzer: a,
				Pkgs:     pkgs,
				Report:   report(a, pkgs[0].Fset),
			}
			start := time.Now()
			if err := a.RunModule(mp); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", a.Name, err))
			}
			timings[i].Elapsed += time.Since(start)
		}
	}
	errs = append(errs, ignores.unused(ran)...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos != all[j].Pos {
			return all[i].Pos < all[j].Pos
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	if len(errs) > 0 {
		return all, timings, fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return all, timings, nil
}
