// Package stwonly enforces the pause discipline: a function annotated
// //hcsgc:stw-only assumes every mutator is parked at a safepoint — the
// heap verifier walks pages with plain loads, retireAllocationPages takes
// pages out from under the allocator, root flips are not atomic. Calling
// one concurrently is the exact bug class the PR 3 chaos soak exists to
// surface dynamically; this pass rejects it statically.
//
// A call to an stw-only function is legal only when the caller
//
//   - is itself annotated //hcsgc:stw-only (the pause property is
//     inherited transitively up to the pause owner), or
//   - owns the pause: its body both stops and resumes the world (calls a
//     stopTheWorld/stopTheWorldTimed function and a resumeTheWorld
//     function), like the collector's runCycle. Code inside closures the
//     owner passes into the pause inherits the owner's standing.
//
// The annotation set is module-wide, so a call across a package boundary
// (core's verifier invoking heap.VerifyAccounting) is checked like one
// inside a package.
package stwonly

import (
	"go/ast"
	"go/types"

	"hcsgc/internal/analysis/lintkit"
)

// Analyzer is the stwonly pass.
var Analyzer = &lintkit.Analyzer{
	Name: "stwonly",
	Doc: "functions annotated //hcsgc:stw-only may only be called from other " +
		"stw-only functions or from the pause owner (a function that both stops " +
		"and resumes the world)",
	RunModule: runModule,
}

func runModule(m *lintkit.ModulePass) error {
	stw := make(map[string]bool)
	for _, p := range m.Pkgs {
		for _, file := range p.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || !lintkit.HasDirective(decl, "stw-only") {
					continue
				}
				if f, ok := p.TypesInfo.Defs[decl.Name].(*types.Func); ok && f != nil {
					stw[lintkit.FuncKey(f)] = true
				}
			}
		}
	}
	if len(stw) == 0 {
		return nil
	}

	for _, p := range m.Pkgs {
		lintkit.ForEachFuncNode(p, func(decl *ast.FuncDecl, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := lintkit.FuncOf(p.TypesInfo, call.Fun)
			if callee == nil || callee.Pkg() == nil || !stw[lintkit.FuncKey(callee)] {
				return true
			}
			if lintkit.HasDirective(decl, "stw-only") || lintkit.IsPauseOwner(decl) {
				return true
			}
			p.Reportf(call.Pos(),
				"call to stop-the-world-only function %s from %s, which is neither "+
					"//hcsgc:stw-only nor a pause owner (stops and resumes the world)",
				callee.Name(), decl.Name.Name)
			return true
		})
	}
	return nil
}
