// Package colorsafe keeps color-bit manipulation behind the heap.Ref
// helpers. A reference's color lives in bits 42..44 (ZGC layout); code
// that masks or shifts those bits by hand — `uint64(r) & AddrMask`,
// `raw &^ ColorMaskAll`, `1 << (AddrBits + k)` — silently breaks when the
// layout changes and has already produced one class of bug the dynamic
// verifier exists for (stale-color refs surviving a phase flip).
//
// The rule: outside internal/heap/ref.go, the constants AddrMask,
// ColorMaskAll and AddrBits must not be referenced at all, and heap.Ref
// values must not be built from raw bit arithmetic — use MakeRef, Recolor,
// Addr, Color and HasColor. Test files are exempt: ref_test asserts the
// layout invariants in terms of the raw masks on purpose.
package colorsafe

import (
	"go/ast"
	"go/token"
	"path/filepath"

	"hcsgc/internal/analysis/lintkit"
)

const heapPkg = "hcsgc/internal/heap"

// rawConsts are the layout constants that only ref.go may touch.
var rawConsts = map[string]bool{
	"AddrMask":     true,
	"ColorMaskAll": true,
	"AddrBits":     true,
}

// Analyzer is the colorsafe pass.
var Analyzer = &lintkit.Analyzer{
	Name: "colorsafe",
	Doc: "color-bit arithmetic on references (AddrMask/ColorMaskAll/AddrBits, " +
		"or heap.Ref built from raw bit expressions) is only allowed inside " +
		"internal/heap/ref.go; use MakeRef/Recolor/Addr/Color elsewhere",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	for _, file := range pass.Files {
		if pass.Pkg.Path() == heapPkg &&
			filepath.Base(pass.Fset.Position(file.Pos()).Filename) == "ref.go" {
			continue // the helper implementation itself
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := pass.TypesInfo.Uses[n]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if obj.Pkg().Path() == heapPkg && rawConsts[obj.Name()] {
					pass.Reportf(n.Pos(),
						"raw color-bit arithmetic with heap.%s: use the heap.Ref helpers "+
							"(MakeRef/Recolor/Addr/Color) so the reference layout stays in ref.go",
						obj.Name())
				}
			case *ast.CallExpr:
				// A conversion heap.Ref(<bit expression>) forges a colored
				// reference outside the helpers.
				if len(n.Args) != 1 {
					return true
				}
				if !isHeapRefConversion(pass, n) {
					return true
				}
				if bin, ok := ast.Unparen(n.Args[0]).(*ast.BinaryExpr); ok && isBitOp(bin.Op) {
					pass.Reportf(n.Pos(),
						"heap.Ref built from raw bit arithmetic: use MakeRef or Recolor")
				}
			}
			return true
		})
	}
	return nil
}

// isHeapRefConversion reports whether call is a conversion to heap.Ref.
func isHeapRefConversion(pass *lintkit.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	var name *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fun.Sel
	case *ast.Ident:
		name = fun
	default:
		return false
	}
	obj := pass.TypesInfo.Uses[name]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == heapPkg && obj.Name() == "Ref"
}

// isBitOp reports whether op is bit-level arithmetic.
func isBitOp(op token.Token) bool {
	switch op {
	case token.AND, token.OR, token.XOR, token.AND_NOT, token.SHL, token.SHR:
		return true
	}
	return false
}
