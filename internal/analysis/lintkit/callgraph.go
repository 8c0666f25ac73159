package lintkit

// This file is the shared module-wide call-graph and intraprocedural
// region layer underneath the concurrency-discipline analyzers
// (lockorder, blockedcheck, allocfree). Functions are identified across
// separately type-checked packages by a stable string key: source-checked
// packages and export-data packages produce distinct *types.Func objects
// for the same function.
//
// The "dataflow" here is deliberately source-order, not control-flow:
// brackets (mu.Lock()..mu.Unlock(), beginBlocked()..endBlocked()) are
// matched by position within one function body, with a deferred close
// extending the bracket to the end of the body. That approximation is
// exact for the straight-line critical sections this codebase writes,
// and it keeps the analyzers deterministic and fast.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncKey identifies a function across separately type-checked packages
// (source-checked here, export-data there) by path, receiver and name.
func FuncKey(f *types.Func) string {
	recv := ""
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedTypeName(sig.Recv().Type()); n != "" {
			recv = n + "."
		}
	}
	return f.Pkg().Path() + "." + recv + f.Name()
}

// A CallSite is one static call inside a function body.
type CallSite struct {
	Call      *ast.CallExpr
	Callee    *types.Func
	CalleeKey string
	// InBlocked is set when the site sits inside a function literal
	// passed to a call of a method named Blocked — the Mutator.Blocked
	// escape hatch. Code in there runs with the mutator marked blocked,
	// so blocking there is sanctioned.
	InBlocked bool
}

// A FuncNode is one named function declaration in the call graph.
// Nodes exist only for source-checked declarations (bodies the loader
// parsed); calls into export-data-only packages appear as CallSites with
// no matching node.
type FuncNode struct {
	Key   string
	Decl  *ast.FuncDecl
	Pass  *Pass
	Calls []CallSite
}

// A CallGraph maps FuncKey to node over a set of passes.
type CallGraph struct {
	Nodes map[string]*FuncNode
}

// BuildCallGraph constructs the static call graph over the given passes.
// Calls inside nested function literals are attributed to the enclosing
// named declaration, matching how annotations attach.
func BuildCallGraph(passes []*Pass) *CallGraph {
	g := &CallGraph{Nodes: make(map[string]*FuncNode)}
	for _, p := range passes {
		for _, file := range p.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				f, ok := p.TypesInfo.Defs[decl.Name].(*types.Func)
				if !ok || f == nil {
					continue
				}
				node := &FuncNode{Key: FuncKey(f), Decl: decl, Pass: p}
				blocked := blockedRanges(decl.Body)
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := FuncOf(p.TypesInfo, call.Fun)
					if callee == nil || callee.Pkg() == nil {
						return true
					}
					node.Calls = append(node.Calls, CallSite{
						Call:      call,
						Callee:    callee,
						CalleeKey: FuncKey(callee),
						InBlocked: inRanges(blocked, call.Pos()),
					})
					return true
				})
				g.Nodes[node.Key] = node
			}
		}
	}
	return g
}

// Reachable returns the set of function keys reachable from the roots by
// following call edges for which follow returns true (follow == nil
// follows everything). Roots are included.
func (g *CallGraph) Reachable(roots []string, follow func(from *FuncNode, cs CallSite) bool) map[string]bool {
	seen := make(map[string]bool)
	queue := append([]string(nil), roots...)
	for _, r := range queue {
		seen[r] = true
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		node := g.Nodes[key]
		if node == nil {
			continue
		}
		for _, cs := range node.Calls {
			if follow != nil && !follow(node, cs) {
				continue
			}
			if !seen[cs.CalleeKey] {
				seen[cs.CalleeKey] = true
				queue = append(queue, cs.CalleeKey)
			}
		}
	}
	return seen
}

// posRange is a half-open lexical extent.
type posRange struct{ lo, hi token.Pos }

func inRanges(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// blockedRanges finds the extents of function literals passed to a call
// of a method named Blocked (the Mutator.Blocked wrapper). The match is
// by method name, like stwonly's pause-primitive match: it survives
// refactors of where Blocked hangs and works in fixtures with stub
// types.
func blockedRanges(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Blocked" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				out = append(out, posRange{lit.Pos(), lit.End()})
			}
		}
		return true
	})
	return out
}

// IsPauseOwner reports whether the function body both stops and resumes
// the world. The match is by callee name — stopTheWorld,
// stopTheWorldTimed and resumeTheWorld are the repo's pause primitives
// regardless of which type they hang off — so the check stays robust
// across refactors of the safepoint plumbing.
func IsPauseOwner(decl *ast.FuncDecl) bool {
	var stops, resumes bool
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		default:
			return true
		}
		switch name {
		case "stopTheWorld", "stopTheWorldTimed", "StopTheWorld":
			stops = true
		case "resumeTheWorld", "ResumeTheWorld":
			resumes = true
		}
		return true
	})
	return stops && resumes
}

// --- mutex identity -------------------------------------------------------

// MutexOp classifies a call as a mutex acquire (+1: Lock, RLock,
// TryLock, TryRLock) or release (-1: Unlock, RUnlock) and identifies
// which mutex it operates on: "pkgpath.Type.field" for a struct field,
// "pkgpath.name" for a package-level var, "pkgpath:local:name" for a
// local. Returns dir 0 when the call is not a lock operation or the
// mutex cannot be identified.
func MutexOp(info *types.Info, pkgPath string, call *ast.CallExpr) (owner string, dir int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		dir = +1
	case "Unlock", "RUnlock":
		dir = -1
	default:
		return "", 0
	}
	f := FuncOf(info, sel)
	if f == nil || f.Pkg() == nil {
		return "", 0
	}
	recv := namedTypeName(recvType(f))
	switch {
	case f.Pkg().Path() == "sync" && (recv == "Mutex" || recv == "RWMutex"):
	case mutexPkg(f.Pkg().Path()) && recv == "Mutex":
		// contention.Mutex is sync.Mutex plus attribution counters: same
		// operations, same bracket discipline, same lock-order ranks on
		// the declaring field.
	default:
		return "", 0
	}
	owner = mutexIdent(info, pkgPath, ast.Unparen(sel.X))
	if owner == "" {
		return "", 0
	}
	return owner, dir
}

// mutexPkg reports whether the import path names the instrumented-mutex
// package (matched by last path segment so GOPATH-layout analyzer
// fixtures can stub it as plain "contention").
func mutexPkg(path string) bool {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path == "contention"
}

// mutexIdent names the mutex-valued expression.
func mutexIdent(info *types.Info, pkgPath string, x ast.Expr) string {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		// c.cycleMu, e.rt.mu, ...: identify the field by owning struct
		// type + field name, so every access through any path names the
		// same lock.
		obj, _ := info.Uses[x.Sel].(*types.Var)
		if obj == nil {
			return ""
		}
		pkg := ""
		if obj.Pkg() != nil {
			pkg = obj.Pkg().Path()
		}
		if owner := namedTypeName(info.TypeOf(x.X)); owner != "" {
			return pkg + "." + owner + "." + obj.Name()
		}
		return pkg + "." + obj.Name()
	case *ast.Ident:
		obj, _ := info.Uses[x].(*types.Var)
		if obj == nil {
			return ""
		}
		pkg := pkgPath
		if obj.Pkg() != nil {
			pkg = obj.Pkg().Path()
		}
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return pkg + "." + obj.Name() // package-level var
		}
		return pkg + ":local:" + obj.Name()
	default:
		return ""
	}
}

func recvType(f *types.Func) types.Type {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return sig.Recv().Type()
	}
	return nil
}

// --- bracket regions ------------------------------------------------------

// A Bracket is one source-ordered open..close region inside a function
// body: mu.Lock()..mu.Unlock(), beginBlocked()..endBlocked(). ClosePos is
// the end of the body when the close is deferred or missing.
type Bracket struct {
	Owner    string
	Open     *ast.CallExpr
	OpenPos  token.Pos
	ClosePos token.Pos
}

// Contains reports whether pos falls strictly inside the bracket
// (after the opening call).
func (b Bracket) Contains(pos token.Pos) bool {
	return b.OpenPos < pos && pos < b.ClosePos
}

// CollectBrackets scans a function body and pairs opening calls with
// their closing calls in source order. classify returns (owner, +1) for
// an open, (owner, -1) for a close, and dir 0 to ignore the call; owner
// names the resource so independent brackets interleave safely. A
// deferred close (defer mu.Unlock()) extends its bracket to the end of
// the body, as does an open with no matching close.
func CollectBrackets(body *ast.BlockStmt, classify func(call *ast.CallExpr, deferred bool) (owner string, dir int)) []Bracket {
	type event struct {
		pos      token.Pos
		call     *ast.CallExpr
		owner    string
		dir      int
		deferred bool
	}
	var events []event
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		deferred := false
		switch n := n.(type) {
		case *ast.DeferStmt:
			call = n.Call
			deferred = true
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		owner, dir := classify(call, deferred)
		if dir != 0 {
			events = append(events, event{call.Pos(), call, owner, dir, deferred})
		}
		if deferred {
			// The DeferStmt's CallExpr child would be visited again
			// without the deferred flag; prune it. Arguments of the
			// deferred call are not bracket events in this codebase.
			return false
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	open := make(map[string][]int) // owner -> indices into out, innermost last
	var out []Bracket
	for _, e := range events {
		switch {
		case e.dir > 0:
			out = append(out, Bracket{Owner: e.owner, Open: e.call, OpenPos: e.pos, ClosePos: body.End()})
			open[e.owner] = append(open[e.owner], len(out)-1)
		case e.dir < 0 && !e.deferred:
			stack := open[e.owner]
			if len(stack) == 0 {
				continue // unmatched close: ignore
			}
			idx := stack[len(stack)-1]
			open[e.owner] = stack[:len(stack)-1]
			out[idx].ClosePos = e.pos
		default:
			// Deferred close: the innermost open bracket for the owner
			// already extends to the body end; just consume it so a
			// later textual close pairs with an earlier open.
			stack := open[e.owner]
			if len(stack) > 0 {
				open[e.owner] = stack[:len(stack)-1]
			}
		}
	}
	return out
}
