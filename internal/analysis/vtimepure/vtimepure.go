// Package vtimepure enforces the virtual-time discipline: the packages
// that must replay deterministically — loadgen, faultinject, latency,
// bench and the GC core itself — may not consult the wall clock, draw
// from non-splitmix randomness, or iterate a Go map into ordered output.
// Every experiment in EXPERIMENTS.md leans on bit-identical replay under
// a fixed seed; one stray time.Now or map-ordered report line breaks the
// A/B diffing that the whole methodology rests on.
//
// Three rule classes, all per-function:
//
//   - wall clock: calls to time.Now/Since/Until/Sleep/After/Tick/
//     NewTimer/NewTicker/AfterFunc. Virtual time (ExecSeconds, retired
//     loads) is the only clock the deterministic paths may read.
//   - randomness: any use of math/rand, math/rand/v2 or crypto/rand.
//     The sanctioned generator is the splitmix64 stream (loadgen.rng,
//     faultinject.mix), which is seed-stable across runs and Go releases.
//   - map iteration: a range over a map whose body is not a pure
//     accumulation (commutative numeric reduction, key/value copy into
//     another map, collecting keys for a later sort, or deletion).
//     Writing formatted output directly from a map range is the
//     canonical nondeterminism bug.
//
// A function annotated //hcsgc:wall-clock is exempt from all three: it
// declares the function deliberately wall-clock (the STW watchdog that
// catches mutators stuck outside the safepoint protocol is the canonical
// example — it must fire in real seconds precisely when virtual time has
// stopped advancing).
package vtimepure

import (
	"go/ast"
	"go/types"

	"hcsgc/internal/analysis/lintkit"
)

// Analyzer is the vtimepure pass.
var Analyzer = &lintkit.Analyzer{
	Name: "vtimepure",
	Doc: "deterministic-replay packages (core, loadgen, faultinject, latency, bench) " +
		"must not read the wall clock, use non-splitmix randomness, or iterate maps " +
		"into ordered output; //hcsgc:wall-clock exempts a function",
	Run: run,
}

// targetPkgs are the final path segments of the packages under the
// virtual-time discipline.
var targetPkgs = map[string]bool{
	"core":        true,
	"loadgen":     true,
	"faultinject": true,
	"latency":     true,
	"bench":       true,
}

// wallClockFuncs are the time-package functions that read or arm the
// wall clock. time.Duration arithmetic and time.Time plumbing are fine —
// only acquiring fresh wall time is flagged.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// randPkgs are the forbidden randomness sources.
var randPkgs = map[string]bool{
	"math/rand": true, "math/rand/v2": true, "crypto/rand": true,
}

func run(p *lintkit.Pass) error {
	if !targetPkgs[lastSegment(p.Pkg.Path())] {
		return nil
	}
	lintkit.ForEachFuncNode(p, func(decl *ast.FuncDecl, n ast.Node) bool {
		if lintkit.HasDirective(decl, "wall-clock") {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := lintkit.FuncOf(p.TypesInfo, n.Fun); f != nil && f.Pkg() != nil {
				if f.Pkg().Path() == "time" && wallClockFuncs[f.Name()] {
					p.Reportf(n.Pos(),
						"%s calls time.%s in a deterministic-replay package; use virtual "+
							"time, or annotate //hcsgc:wall-clock with justification",
						decl.Name.Name, f.Name())
				}
			}
		case *ast.SelectorExpr:
			if obj := qualifiedPkg(p.TypesInfo, n); obj != nil && randPkgs[obj.Imported().Path()] {
				p.Reportf(n.Pos(),
					"%s uses %s; deterministic-replay packages must draw randomness "+
						"from the seeded splitmix64 stream",
					decl.Name.Name, obj.Imported().Path())
			}
		case *ast.RangeStmt:
			if t := p.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok && !pureAccumulation(p.TypesInfo, n.Body) {
					p.Reportf(n.Pos(),
						"%s iterates a map in nondeterministic order with side effects "+
							"beyond pure accumulation; collect and sort the keys first",
						decl.Name.Name)
				}
			}
		}
		return true
	})
	return nil
}

// qualifiedPkg returns the *types.PkgName when sel's qualifier is a
// package identifier (rand.Int63 → math/rand), or nil.
func qualifiedPkg(info *types.Info, sel *ast.SelectorExpr) *types.PkgName {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// pureAccumulation reports whether every statement in a map-range body
// is order-independent: numeric reductions (sum += v), copies into
// another indexed collection (out[k] = v), key collection for a later
// sort (keys = append(keys, k)), deletion, and control flow over those.
// Anything else — above all, writing formatted output — depends on the
// iteration order and is rejected.
func pureAccumulation(info *types.Info, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		if !pureStmt(info, stmt) {
			return false
		}
	}
	return true
}

func pureStmt(info *types.Info, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			if isNumeric(info.TypeOf(lhs)) {
				continue // commutative reduction target
			}
			if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				continue // out[k] = v: keyed copy, order-independent
			}
			if i < len(s.Rhs) && isAppendCall(s.Rhs[i]) {
				continue // keys = append(keys, k): sorted downstream
			}
			if isBool(info.TypeOf(lhs)) {
				continue // found/any flags: order-independent
			}
			return false
		}
		return true
	case *ast.IncDecStmt:
		return true
	case *ast.ExprStmt:
		// Only the delete builtin is an order-independent bare call.
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		if s.Body != nil && !pureAccumulation(info, s.Body) {
			return false
		}
		if s.Else != nil {
			return pureStmt(info, s.Else)
		}
		return true
	case *ast.BlockStmt:
		return pureAccumulation(info, s)
	case *ast.BranchStmt, *ast.EmptyStmt:
		return true
	case *ast.DeclStmt:
		return true
	default:
		return false
	}
}

func isNumeric(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok {
		if t == nil {
			return false
		}
		b, ok = t.Underlying().(*types.Basic)
		if !ok {
			return false
		}
	}
	return b.Info()&types.IsNumeric != 0
}

func isBool(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

func lastSegment(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
