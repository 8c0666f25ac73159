// Package lintkit is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that the hcsgc-lint analyzers
// need. The repo deliberately carries no third-party modules, so the
// framework is built on the standard library only: go/ast and go/types do
// the heavy lifting, and `go list -export` supplies package metadata and
// export data (load.go). There is one driver, RunAnalyzers, behind
// cmd/hcsgc-lint and the fixture harness alike.
//
// An analyzer declares exactly one entry point. Run checks one package at
// a time, for invariants that a package's own syntax and types decide.
// RunModule sees every loaded package at once, for invariants that span
// packages: one call graph, one lock graph, one annotation set, "every
// fault injection point is wired to a site". Such an invariant has no
// per-package half: one package's view knows fewer blocking locks and
// fewer callees, and what it misses cannot be recovered by running both
// views and subtracting.
//
// # Annotations
//
// The GC core's machine-checked discipline rides on directive comments
// attached to function declarations:
//
//	//hcsgc:gc-thread    — the function runs on a GC thread (marking,
//	                       relocation, verification) and may bypass the
//	                       mutator load-barrier API.
//	//hcsgc:barrier-impl — the function IS the mutator barrier/allocation
//	                       implementation (internal/core's Mutator API).
//	//hcsgc:stw-only     — the function may only run inside a
//	                       stop-the-world pause.
//
// Directives are written like //go:build constraints: no space after the
// slashes, anywhere in the function's doc comment.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Run checks a single package; RunModule checks the whole loaded
	// package set at once. Exactly one of the two is set.
	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// A Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// OtherFiles are the package's assembly files (absolute paths).
	OtherFiles []string

	report func(Diagnostic)
}

// A ModulePass carries every loaded package for a module-wide analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Pass
	report   func(Diagnostic)
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Reportf reports a module-wide diagnostic; fset must be the owning
// package's file set (all passes of one load share it).
func (m *ModulePass) Reportf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	m.report(Diagnostic{
		Pos:      fset.Position(pos),
		Analyzer: m.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FileOf returns the *ast.File containing pos, or nil.
func (p *Pass) FileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// --- directive comments -------------------------------------------------

// directivePrefix is the marker shared by all hcsgc annotations.
const directivePrefix = "//hcsgc:"

// Directives returns the hcsgc annotation names ("gc-thread", "stw-only",
// ...) attached to the function declaration's doc comment.
func Directives(decl *ast.FuncDecl) []string {
	if decl == nil || decl.Doc == nil {
		return nil
	}
	var out []string
	for _, c := range decl.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
			name, _, _ := strings.Cut(rest, " ")
			name = strings.TrimSpace(name)
			if name != "" {
				out = append(out, name)
			}
		}
	}
	return out
}

// HasDirective reports whether decl carries //hcsgc:<name>.
func HasDirective(decl *ast.FuncDecl, name string) bool {
	for _, d := range Directives(decl) {
		if d == name {
			return true
		}
	}
	return false
}

// ForEachFuncNode walks every top-level function declaration in the pass
// and calls fn for every node inside it, including nodes of nested
// function literals — the enclosing *named* declaration is what carries
// annotations. Returning false from fn prunes the subtree.
func ForEachFuncNode(p *Pass, fn func(decl *ast.FuncDecl, n ast.Node) bool) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if n == nil {
					return false
				}
				return fn(decl, n)
			})
		}
	}
}

// --- symbol matching ----------------------------------------------------

// FuncOf resolves a call or selector expression to the *types.Func it
// invokes or references, or nil.
func FuncOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[e].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsMethod reports whether f is the method recvType.name declared in the
// package with the given import path. recvType is the bare named-type name
// ("Heap"); pointerness of the receiver is ignored.
func IsMethod(f *types.Func, pkgPath, recvType, name string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedTypeName(sig.Recv().Type()) == recvType
}

// IsPkgFunc reports whether f is the package-level function pkgPath.name.
func IsPkgFunc(f *types.Func, pkgPath, name string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// namedTypeName unwraps pointers and returns the named type's name, or "".
func namedTypeName(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u.Obj().Name()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return ""
		}
	}
}

// --- running ------------------------------------------------------------

// RunAnalyzers applies the analyzers to the loaded packages: a Run over
// every package, a RunModule once over the whole set. Diagnostics come
// back sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }

	// DepOnly packages exist to give module-wide analyzers visibility into
	// same-module dependencies (bodies, annotations, lock ranks): they get
	// a pass so they join ModulePass.Pkgs, but per-package analyzers do
	// not run on them and any diagnostic anchored in one is dropped — the
	// user did not ask for findings there.
	drop := func(Diagnostic) {}

	passesByAnalyzer := make(map[*Analyzer][]*Pass)
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			report := collect
			if pkg.DepOnly {
				report = drop
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				OtherFiles: pkg.OtherFiles,
				report:     report,
			}
			passesByAnalyzer[a] = append(passesByAnalyzer[a], pass)
			if a.Run == nil || pkg.DepOnly {
				continue
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{Analyzer: a, Pkgs: passesByAnalyzer[a], report: collect}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s (module): %w", a.Name, err)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
