// Package barriercheck enforces the load-barrier discipline at the heart
// of the collector's correctness argument: every mutator-facing reference
// load must go through the Mutator barrier API (internal/core), because
// HOTNESS only observes accesses that reach the barrier slow path and
// self-healing only happens there. Reading or writing heap words through
// the raw Heap accessors (LoadWord/StoreWord/CASWord/CopyObject) bypasses
// both.
//
// Raw access is legal in exactly two places, and both must say so:
//
//   - the barrier/allocation implementation itself, annotated
//     //hcsgc:barrier-impl (the Mutator methods in internal/core);
//   - GC-thread code (marking, relocation, STW verification), annotated
//     //hcsgc:gc-thread.
//
// The heap package itself (the accessor implementation) and _test.go
// files (which poke raw memory on purpose) are exempt.
package barriercheck

import (
	"go/ast"

	"hcsgc/internal/analysis/lintkit"
)

// heapPkg is the import path of the simulated heap.
const heapPkg = "hcsgc/internal/heap"

// rawAccessors are the (*heap.Heap) methods that touch heap words without
// a barrier.
var rawAccessors = map[string]bool{
	"LoadWord":   true,
	"StoreWord":  true,
	"LoadWords":  true,
	"StoreWords": true,
	"CASWord":    true,
	"CopyObject": true,
}

// Analyzer is the barriercheck pass.
var Analyzer = &lintkit.Analyzer{
	Name: "barriercheck",
	Doc: "reference loads outside the GC must use the Mutator barrier API, " +
		"not raw heap.Heap word accessors; GC-thread callers are allowlisted " +
		"with //hcsgc:gc-thread, the barrier implementation with //hcsgc:barrier-impl",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	if pass.Pkg.Path() == heapPkg {
		return nil // the accessor implementation itself
	}
	lintkit.ForEachFuncNode(pass, func(decl *ast.FuncDecl, n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f := lintkit.FuncOf(pass.TypesInfo, sel)
		if f == nil || !rawAccessors[f.Name()] || !lintkit.IsMethod(f, heapPkg, "Heap", f.Name()) {
			return true
		}
		if lintkit.HasDirective(decl, "gc-thread") || lintkit.HasDirective(decl, "barrier-impl") {
			return true
		}
		pass.Reportf(sel.Sel.Pos(),
			"raw heap word access heap.(*Heap).%s bypasses the load barrier: "+
				"use the Mutator API, or annotate the enclosing function with "+
				"//hcsgc:gc-thread (GC thread) or //hcsgc:barrier-impl (barrier implementation)",
			f.Name())
		return true
	})
	return nil
}
