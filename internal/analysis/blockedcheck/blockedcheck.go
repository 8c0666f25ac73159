// Package blockedcheck enforces the safepoint liveness rule that PR 6
// stated as a gotcha and PR 7 re-learned the hard way: any goroutine
// holding an attached mutator that idles without polling deadlocks every
// stop-the-world — the pause owner waits for the mutator to park, the
// mutator waits for work. The fix is always the same: wrap the wait in
// Mutator.Blocked(), which marks the mutator parked for the duration.
// This pass finds the waits that forgot.
//
// A potentially-blocking operation — channel send/receive, range over a
// channel, select without a default, sync.WaitGroup.Wait, sync.Cond.Wait,
// time.Sleep, or Lock on a "blocking lock" (a mutex whose critical
// section somewhere blocks or stops the world, like the collector's
// cycleMu) — is flagged when it is reachable from attached-mutator
// context and not sanctioned. Sanctioned means: lexically inside a
// Mutator.Blocked closure, inside a beginBlocked/endBlocked bracket (the
// allocation stall path marks itself blocked by hand), or after the
// mutator has been detached with Mutator.Close.
//
// Attached-mutator context starts at any function whose body touches a
// value of type *Mutator and spreads through static call edges, stopping
// at //hcsgc:gc-thread and //hcsgc:stw-only functions (GC-side code has
// no attached mutator), pause owners, the safepoint protocol
// implementation itself (methods on the safepoints type), and the
// sanctioned regions above. Two structural rules keep the context
// honest: a `go func() {...}()` body runs on a fresh goroutine and only
// re-enters context if it touches a Mutator itself, and detach ordering
// follows RUNTIME order — defers unwind last-in-first-out, so the
// canonical `defer rt.Close()` / `defer m.Close()` pair detaches the
// mutator before the runtime teardown blocks. Context, call edges and the
// set of blocking locks are module-wide: a critical section that blocks
// through a callee in another package makes its mutex a blocking lock for
// every function that takes it.
package blockedcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"hcsgc/internal/analysis/lintkit"
)

// Analyzer is the blockedcheck pass.
var Analyzer = &lintkit.Analyzer{
	Name: "blockedcheck",
	Doc: "potentially-blocking operations reachable from attached-mutator context " +
		"must be wrapped in Mutator.Blocked() (or sit inside a " +
		"beginBlocked/endBlocked bracket); //hcsgc:gc-thread and //hcsgc:stw-only " +
		"code is exempt",
	RunModule: runModule,
}

// A blockOp is one potentially-blocking operation in a function body.
type blockOp struct {
	pos  token.Pos
	kind string
}

// funcFacts is what the pass derives per named declaration.
type funcFacts struct {
	node     *lintkit.FuncNode
	ops      []blockOp  // blocking ops outside sanctioned regions
	root     bool       // touches a *Mutator: context starts here
	exempt   bool       // gc-thread / stw-only / pause owner / safepoint impl
	detach   evKey      // runtime-order key of the first Mutator.Close, if any
	hasClose bool       // detach is meaningful
	sanct    []posRange // Blocked closures + beginBlocked brackets
	spawned  []posRange // go-statement closures that never touch a Mutator
	defers   []posRange // defer statement subtrees, for runtime ordering
}

type posRange struct{ lo, hi token.Pos }

// evKey orders events by when they run, not where they sit in the
// source: everything in the body phase runs before any defer, and defers
// run last-in-first-out, so later source positions run earlier.
type evKey struct {
	deferred bool
	pos      token.Pos
}

func (k evKey) before(o evKey) bool {
	if k.deferred != o.deferred {
		return !k.deferred
	}
	if k.deferred {
		return k.pos > o.pos
	}
	return k.pos < o.pos
}

func (f *funcFacts) key(pos token.Pos) evKey {
	return evKey{deferred: inRanges(f.defers, pos), pos: pos}
}

func runModule(m *lintkit.ModulePass) error {
	graph := lintkit.BuildCallGraph(m.Pkgs)
	facts := make(map[string]*funcFacts, len(graph.Nodes))
	blockingLocks := findBlockingLocks(graph)
	for key, node := range graph.Nodes {
		facts[key] = analyze(node, blockingLocks)
	}

	for key := range contextSet(graph, facts) {
		f := facts[key]
		if f == nil || f.exempt {
			continue
		}
		for _, op := range f.ops {
			f.node.Pass.Reportf(op.pos,
				"%s in %s, which runs with an attached mutator; wrap the wait in "+
					"Mutator.Blocked() or the STW pause owner will spin on it",
				op.kind, f.node.Decl.Name.Name)
		}
	}
	return nil
}

// contextSet computes the attached-mutator context: roots plus everything
// reachable through unsanctioned call edges.
func contextSet(graph *lintkit.CallGraph, facts map[string]*funcFacts) map[string]bool {
	var roots []string
	for key, f := range facts {
		if f.root && !f.exempt {
			roots = append(roots, key)
		}
	}
	return graph.Reachable(roots, func(from *lintkit.FuncNode, cs lintkit.CallSite) bool {
		f := facts[from.Key]
		if f == nil || f.exempt {
			return false
		}
		if cs.InBlocked || inRanges(f.sanct, cs.Call.Pos()) {
			return false // the callee runs with the mutator marked blocked
		}
		if inRanges(f.spawned, cs.Call.Pos()) {
			return false // a fresh goroutine, not the spawner's mutator
		}
		if f.hasClose && f.detach.before(f.key(cs.Call.Pos())) {
			return false // after Mutator.Close: no attached mutator left
		}
		callee := facts[cs.CalleeKey]
		return callee == nil || !callee.exempt
	})
}

// analyze derives the per-function facts.
func analyze(node *lintkit.FuncNode, blockingLocks map[string]bool) *funcFacts {
	p, decl := node.Pass, node.Decl
	f := &funcFacts{node: node}

	if lintkit.HasDirective(decl, "gc-thread") || lintkit.HasDirective(decl, "stw-only") ||
		lintkit.IsPauseOwner(decl) || safepointImpl(decl) {
		f.exempt = true
		return f
	}

	// Runtime-order and goroutine structure: defers run at function exit
	// (last-in-first-out), and a `go func() {...}()` body runs on a fresh
	// goroutine that does not inherit the spawner's attached mutator
	// unless it touches one itself.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			f.defers = append(f.defers, posRange{n.Pos(), n.End()})
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok && !touchesMutator(p.TypesInfo, lit.Body) {
				f.spawned = append(f.spawned, posRange{lit.Pos(), lit.End()})
			}
		}
		return true
	})

	// Root detection, part 1: a receiver or parameter of type *Mutator
	// puts the function in attached-mutator context even before the body
	// touches it.
	if fobj, ok := p.TypesInfo.Defs[decl.Name].(*types.Func); ok && fobj != nil {
		sig := fobj.Type().(*types.Signature)
		if sig.Recv() != nil && namedType(sig.Recv().Type()) == "Mutator" {
			f.root = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if namedType(sig.Params().At(i).Type()) == "Mutator" {
				f.root = true
			}
		}
	}

	// Sanctioned regions: Blocked closures and beginBlocked/endBlocked
	// brackets.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Blocked" {
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					f.sanct = append(f.sanct, posRange{lit.Pos(), lit.End()})
				}
			}
		}
		return true
	})
	for _, b := range lintkit.CollectBrackets(decl.Body, func(call *ast.CallExpr, deferred bool) (string, int) {
		switch calleeName(call) {
		case "beginBlocked":
			return "sp", +1
		case "endBlocked":
			return "sp", -1
		}
		return "", 0
	}) {
		f.sanct = append(f.sanct, posRange{b.OpenPos, b.ClosePos})
	}

	// Channel ops that are a select's comm clauses belong to the select,
	// not to themselves.
	var commRanges []posRange
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CommClause); ok && cc.Comm != nil {
			commRanges = append(commRanges, posRange{cc.Comm.Pos(), cc.Comm.End()})
		}
		return true
	})

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		var op *blockOp
		switch n := n.(type) {
		case *ast.SendStmt:
			if !inRanges(commRanges, n.Pos()) {
				op = &blockOp{n.Pos(), "channel send"}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inRanges(commRanges, n.Pos()) {
				op = &blockOp{n.Pos(), "channel receive"}
			}
		case *ast.RangeStmt:
			if t := p.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					op = &blockOp{n.Pos(), "range over channel"}
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				op = &blockOp{n.Pos(), "select without default"}
			}
		case *ast.CallExpr:
			if mu, dir := lintkit.MutexOp(p.TypesInfo, p.Pkg.Path(), n); dir > 0 && blockingLocks[mu] {
				op = &blockOp{n.Pos(), fmt.Sprintf("Lock of %s, whose critical section blocks", mu)}
				break
			}
			callee := lintkit.FuncOf(p.TypesInfo, n.Fun)
			if callee == nil || callee.Pkg() == nil {
				break
			}
			switch {
			case callee.Pkg().Path() == "time" && callee.Name() == "Sleep":
				op = &blockOp{n.Pos(), "time.Sleep"}
			case callee.Pkg().Path() == "sync" && callee.Name() == "Wait":
				op = &blockOp{n.Pos(), recvName(callee) + ".Wait"}
			}
			// Track the detach point: after Close the mutator is gone.
			// The earliest detach in RUNTIME order wins — a
			// `defer m.Close()` written after `defer rt.Close()` still
			// detaches first, because defers unwind in reverse.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if namedType(p.TypesInfo.TypeOf(sel.X)) == "Mutator" {
					if k := f.key(n.Pos()); !f.hasClose || k.before(f.detach) {
						f.hasClose, f.detach = true, k
					}
				}
			}
		}
		if op != nil && !inRanges(f.sanct, op.pos) && !inRanges(f.spawned, op.pos) {
			f.ops = append(f.ops, *op)
		}
		// Root detection: the body touches a *Mutator-typed value.
		if e, ok := n.(ast.Expr); ok && !f.root {
			if namedType(p.TypesInfo.TypeOf(e)) == "Mutator" {
				f.root = true
			}
		}
		return true
	})
	if f.hasClose {
		kept := f.ops[:0]
		for _, op := range f.ops {
			if !f.detach.before(f.key(op.pos)) {
				kept = append(kept, op)
			}
		}
		f.ops = kept
	}
	return f
}

// touchesMutator reports whether any expression in the subtree has the
// named type Mutator — the body-level root heuristic, reused to decide
// whether a spawned goroutine carries its own attached mutator.
func touchesMutator(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && namedType(info.TypeOf(e)) == "Mutator" {
			found = true
		}
		return !found
	})
	return found
}

// findBlockingLocks returns the mutexes whose critical sections may
// block: a Lock..Unlock bracket somewhere lexically contains a blocking
// primitive, a pause primitive, or a call whose callee may transitively
// block (cycleMu is the canonical case — the whole GC cycle,
// stop-the-world included, runs under it via runCycle).
func findBlockingLocks(graph *lintkit.CallGraph) map[string]bool {
	// directBlock marks functions whose own body contains a blocking or
	// pause primitive; the fixpoint closes that over call edges.
	mayBlock := make(map[string]bool)
	directPositions := make(map[string][]token.Pos)
	for key, node := range graph.Nodes {
		var poss []token.Pos
		condWaits := false
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				poss = append(poss, n.Pos())
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					poss = append(poss, n.Pos())
				}
			case *ast.CallExpr:
				switch calleeName(n) {
				case "stopTheWorld", "stopTheWorldTimed", "Sleep":
					poss = append(poss, n.Pos())
				case "Wait":
					// sync.Cond.Wait atomically RELEASES the mutex it
					// parks under, so it does not make the enclosing
					// Lock bracket a blocking critical section — the
					// condvar pattern (markPool.get) is the whole point.
					// The function still blocks its caller, so it seeds
					// the transitive fixpoint below.
					if condWait(node.Pass.TypesInfo, n) {
						condWaits = true
					} else {
						poss = append(poss, n.Pos())
					}
				}
			}
			return true
		})
		directPositions[key] = poss
		if len(poss) > 0 || condWaits {
			mayBlock[key] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for key, node := range graph.Nodes {
			if mayBlock[key] {
				continue
			}
			for _, cs := range node.Calls {
				if mayBlock[cs.CalleeKey] {
					mayBlock[key] = true
					changed = true
					break
				}
			}
		}
	}

	out := make(map[string]bool)
	for key, node := range graph.Nodes {
		p := node.Pass
		brackets := lintkit.CollectBrackets(node.Decl.Body, func(call *ast.CallExpr, deferred bool) (string, int) {
			return lintkit.MutexOp(p.TypesInfo, p.Pkg.Path(), call)
		})
		if len(brackets) == 0 {
			continue
		}
		inside := directPositions[key]
		for _, cs := range node.Calls {
			if mayBlock[cs.CalleeKey] {
				inside = append(inside, cs.Call.Pos())
			}
		}
		for _, b := range brackets {
			for _, pos := range inside {
				if b.Contains(pos) {
					out[b.Owner] = true
					break
				}
			}
		}
	}
	return out
}

// safepointImpl reports whether the declaration is part of the safepoint
// protocol itself — a method on the safepoints registry. poll and
// stopTheWorld park on the registry's condvar by design; flagging the
// implementation of Blocked() for not calling Blocked() would be
// circular.
func safepointImpl(decl *ast.FuncDecl) bool {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return false
	}
	t := decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "safepoints"
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// condWait reports whether the call is sync.Cond.Wait.
func condWait(info *types.Info, call *ast.CallExpr) bool {
	f := lintkit.FuncOf(info, call.Fun)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil && namedType(sig.Recv().Type()) == "Cond"
}

func recvName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != "" {
			return n
		}
	}
	return "sync"
}

func namedType(t types.Type) string {
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

func inRanges(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}
