// Package atomicword catches the mixed atomic/plain access class of data
// race: once any code path touches a struct field through sync/atomic,
// every access to that field's memory must be atomic — a single plain
// load or store re-introduces the race the atomics were bought to fix
// (the same family staticcheck's SA-class checks and the PR 2 UndoAlloc
// bug live in).
//
// Two shapes are tracked per package:
//
//   - scalar fields:   atomic.LoadUint64(&s.f)   → every other `s.f` use
//     must also be an atomic call argument;
//   - slice elements:  atomic.StoreUint64(&s.f[i], v) → every other
//     indexed access `s.f[i]` must be atomic. Whole-slice operations on
//     s.f (len, range, reslice, replacing the header) stay legal: the
//     atomicity contract covers the element memory, not the header, and
//     header swaps happen under documented quiescence (e.g. STW).
//
// Fields of the sync/atomic wrapper types (atomic.Uint64 & friends) are
// atomic by construction and need no tracking. Test files are exempt.
package atomicword

import (
	"go/ast"
	"go/types"
	"strings"

	"hcsgc/internal/analysis/lintkit"
)

// Analyzer is the atomicword pass.
var Analyzer = &lintkit.Analyzer{
	Name: "atomicword",
	Doc: "a struct field accessed through sync/atomic anywhere must be accessed " +
		"atomically everywhere (plain reads or writes of such fields race)",
	Run: run,
}

// atomicFuncs are the sync/atomic package-level operations whose first
// argument is the address being operated on.
func isAtomicOp(f *types.Func) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(f.Name(), prefix) {
			return true
		}
	}
	return false
}

func run(pass *lintkit.Pass) error {
	type usage struct {
		scalar bool // atomic ops on &s.f itself
		elem   bool // atomic ops on &s.f[i]
		pos    ast.Node
	}
	atomicFields := make(map[*types.Var]*usage)
	// blessed marks the exact field-access nodes that appear inside an
	// atomic call's address argument; phase 2 skips them.
	blessed := make(map[ast.Node]bool)

	fieldOf := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return nil
		}
		return s.Obj().(*types.Var)
	}

	// Phase 1: find atomic call sites and record their target fields.
	lintkit.ForEachFuncNode(pass, func(decl *ast.FuncDecl, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if !isAtomicOp(lintkit.FuncOf(pass.TypesInfo, call.Fun)) {
			return true
		}
		unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || unary.Op.String() != "&" {
			return true
		}
		switch target := ast.Unparen(unary.X).(type) {
		case *ast.SelectorExpr: // &s.f
			if fv := fieldOf(target); fv != nil {
				u := atomicFields[fv]
				if u == nil {
					u = &usage{pos: target}
					atomicFields[fv] = u
				}
				u.scalar = true
				blessed[target] = true
			}
		case *ast.IndexExpr: // &s.f[i]
			if fv := fieldOf(target.X); fv != nil {
				u := atomicFields[fv]
				if u == nil {
					u = &usage{pos: target}
					atomicFields[fv] = u
				}
				u.elem = true
				blessed[target] = true
			}
		}
		return true
	})
	if len(atomicFields) == 0 {
		return nil
	}

	// Phase 2: flag plain accesses to the recorded fields.
	lintkit.ForEachFuncNode(pass, func(decl *ast.FuncDecl, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if blessed[n] {
				return true
			}
			fv := fieldOf(n.X)
			if fv == nil {
				return true
			}
			if u, ok := atomicFields[fv]; ok && u.elem {
				pass.Reportf(n.Pos(),
					"elements of field %s are accessed atomically elsewhere; "+
						"this plain indexed access races — use sync/atomic here too",
					fv.Name())
			}
		case *ast.SelectorExpr:
			if blessed[n] {
				return true
			}
			fv := fieldOf(n)
			if fv == nil {
				return true
			}
			u, ok := atomicFields[fv]
			if !ok || !u.scalar {
				return true
			}
			pass.Reportf(n.Pos(),
				"field %s is accessed atomically elsewhere; this plain access "+
					"races — use sync/atomic here too",
				fv.Name())
		}
		return true
	})
	return nil
}
