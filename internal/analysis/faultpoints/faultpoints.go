// Package faultpoints keeps the fault-injection plane honest: every
// faultinject.Point constant must be wired to at least one production
// site somewhere in the module — an Injector.At(Point, ...) call, a
// seq/fired array index, a Config.Delay index. A declared-but-unwired
// point is worse than dead code: chaos schedules (faultinject.Randomized)
// arm a delay probability for it, soak reports list it, and reproducer
// seeds appear to cover a window that nothing actually exercises.
//
// The check is module-wide by construction: points are declared in
// internal/faultinject and consumed in internal/heap and internal/core.
package faultpoints

import (
	"go/ast"
	"go/token"

	"hcsgc/internal/analysis/lintkit"
)

// faultPkg is the import path declaring the Point constants.
const faultPkg = "hcsgc/internal/faultinject"

// Analyzer is the faultpoints pass.
var Analyzer = &lintkit.Analyzer{
	Name: "faultpoints",
	Doc: "every faultinject.Point constant must be referenced by at least one " +
		"production site (injection call or decision-table index); unwired " +
		"points make chaos schedules lie about their coverage",
	RunModule: runModule,
}

func runModule(m *lintkit.ModulePass) error {
	// Phase 1: collect the Point constants from the faultinject package's
	// own source. NumPoints is the array-length sentinel, not an injection
	// point, and is exempt.
	type pointDecl struct {
		fset *token.FileSet
		pos  token.Pos
	}
	points := make(map[string]pointDecl)
	for _, p := range m.Pkgs {
		if p.Pkg.Path() != faultPkg {
			continue
		}
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				spec, ok := n.(*ast.ValueSpec)
				if !ok {
					return true
				}
				for _, name := range spec.Names {
					obj := p.TypesInfo.Defs[name]
					if obj == nil || name.Name == "NumPoints" || name.Name == "_" {
						continue
					}
					if obj.Type().String() != faultPkg+".Point" {
						continue
					}
					points[name.Name] = pointDecl{fset: p.Fset, pos: name.Pos()}
				}
				return true
			})
		}
	}
	if len(points) == 0 {
		return nil
	}

	// Phase 2: a use anywhere in non-test production code wires the point.
	// Cross-package uses resolve to export-data objects, so match by
	// package path + name rather than object identity.
	used := make(map[string]bool)
	for _, p := range m.Pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.TypesInfo.Uses[id]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != faultPkg {
					return true
				}
				if _, isPoint := points[obj.Name()]; isPoint {
					used[obj.Name()] = true
				}
				return true
			})
		}
	}

	for name, decl := range points {
		if !used[name] {
			m.Reportf(decl.fset, decl.pos,
				"fault injection point %s has no production usage site: wire it "+
					"(Injector.At or a decision-table index) or delete it — chaos "+
					"schedules arm it and report coverage that never executes",
				name)
		}
	}
	return nil
}
