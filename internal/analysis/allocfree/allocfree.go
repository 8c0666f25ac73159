// Package allocfree statically proves that functions annotated
// //hcsgc:alloc-free perform no Go-runtime allocation on any path. The
// annotated set is the code that runs on every load barrier and every
// served request — markObject, the hotness bitmap updates, the
// per-request outcome accounting, the per-alloc signals ledger — where
// the AllocCount regression test showed a single stray allocation costs
// more than the entire fast path. The dynamic test catches a regression only
// on the interleaving it happens to execute; this pass rejects the
// allocation at compile time.
//
// Rejected constructs: make, new, append, map/slice composite literals,
// &T{...} literals, function literals (closure capture), go statements,
// defer, string concatenation, string<->[]byte/[]rune conversions,
// interface boxing (concrete value passed to, returned as, or assigned
// into an interface), variadic calls with a non-empty tail, method
// values, and calls through function-typed values (unprovable).
// Arguments of panic are exempt — the failure path is allowed to
// allocate the error it dies with.
//
// A body-less declaration (an assembly function) may carry the annotation
// too: it is trusted when its TEXT block in the package's assembly files
// makes no call, and reported where it is declared otherwise.
//
// Calls are handled by contract:
//
//   - allowlisted callees (sync/atomic, math/bits, runtime.Gosched,
//     sync.Mutex/RWMutex lock ops, len/cap/copy/delete/min/max) are
//     trusted not to allocate;
//   - a same-package callee that is itself //hcsgc:alloc-free is a
//     proven boundary; an unannotated one is proven recursively, with
//     the finding reported at the call site;
//   - a cross-package callee must be //hcsgc:alloc-free or allowlisted:
//     the caller enforces the boundary and the callee's own annotation
//     proves the body. This is what threads the annotation through heap,
//     simmem and objmodel: every cross-package hop on a fast path must
//     carry the contract explicitly.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"strings"

	"hcsgc/internal/analysis/lintkit"
)

// Analyzer is the allocfree pass.
var Analyzer = &lintkit.Analyzer{
	Name: "allocfree",
	Doc: "functions annotated //hcsgc:alloc-free must be statically free of " +
		"Go-runtime allocations (no make/append/closures/interface boxing/string " +
		"concat); cross-package callees must carry the annotation too",
	RunModule: func(m *lintkit.ModulePass) error { return check(m.Pkgs) },
}

// allowedPkgs are fully trusted import paths: every function there is
// allocation-free.
var allowedPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
}

// checker carries the per-invocation state.
type checker struct {
	passes []*lintkit.Pass
	// annotated maps FuncKey to true for every //hcsgc:alloc-free
	// declaration across all passes.
	annotated map[string]bool
	// decls maps FuncKey to its source declaration and owning pass.
	decls map[string]declAt
	// verdicts memoizes proofs of unannotated same-package callees:
	// nil = clean, else the first reason it allocates.
	verdicts map[string]*reason
	proving  map[string]bool
}

type declAt struct {
	decl *ast.FuncDecl
	pass *lintkit.Pass
}

type reason struct {
	pos  token.Pos
	pass *lintkit.Pass
	what string
	// boundary marks an unannotated cross-package callee. It is a finding
	// at that call wherever it sits on the alloc-free path: prove hands it
	// through to the root's reporter instead of folding it into the
	// verdict on the helper that makes the call.
	boundary bool
}

func check(passes []*lintkit.Pass) error {
	c := &checker{
		passes:    passes,
		annotated: make(map[string]bool),
		decls:     make(map[string]declAt),
		verdicts:  make(map[string]*reason),
		proving:   make(map[string]bool),
	}
	var roots []string // annotated keys in source order
	for _, p := range passes {
		var asm map[string]string // TEXT symbol -> first call out, "" for none
		for _, file := range p.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				f, ok := p.TypesInfo.Defs[decl.Name].(*types.Func)
				if !ok || f == nil {
					continue
				}
				key := lintkit.FuncKey(f)
				annotated := lintkit.HasDirective(decl, "alloc-free")
				if decl.Body == nil {
					if !annotated {
						continue
					}
					// An assembly body: a boundary like any annotated
					// function, proven here by making no call.
					if asm == nil {
						var err error
						if asm, err = asmCalls(p.OtherFiles); err != nil {
							return err
						}
					}
					c.annotated[key] = true
					call, ok := asm[decl.Name.Name]
					switch {
					case !ok:
						p.Reportf(decl.Pos(), "//hcsgc:alloc-free function %s has no TEXT block in the package's assembly", decl.Name.Name)
					case call != "":
						p.Reportf(decl.Pos(), "//hcsgc:alloc-free function %s calls out of its assembly body (%s), which cannot be proven allocation-free", decl.Name.Name, call)
					}
					continue
				}
				c.decls[key] = declAt{decl, p}
				if annotated {
					c.annotated[key] = true
					roots = append(roots, key)
				}
			}
		}
	}
	// Every body is walked once, roots here and helpers under prove's
	// memo, so no finding repeats; the order only decides which root a
	// boundary finding inside a shared helper names.
	for _, key := range roots {
		da := c.decls[key]
		c.walk(da.pass, da.decl, func(r reason) {
			r.pass.Reportf(r.pos, "//hcsgc:alloc-free function %s %s",
				da.decl.Name.Name, r.what)
		})
	}
	return nil
}

// asmCalls reads the TEXT blocks of the assembly files and maps each
// function's name to the position of its first CALL, or of a JMP to a
// symbol (a tail call), or to "" when it has none.
func asmCalls(files []string) (map[string]string, error) {
	calls := make(map[string]string)
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fn := ""
		for i, line := range strings.Split(string(src), "\n") {
			if j := strings.Index(line, "//"); j >= 0 {
				line = line[:j]
			}
			fields := strings.Fields(line)
			if len(fields) > 0 && strings.HasSuffix(fields[0], ":") {
				fields = fields[1:] // a label
			}
			if len(fields) < 2 {
				continue
			}
			op, arg := fields[0], fields[1]
			if op == "TEXT" {
				fn, _, _ = strings.Cut(arg, "(SB)")
				if k := strings.LastIndex(fn, "·"); k >= 0 {
					fn = fn[k+len("·"):]
				}
				calls[fn] = ""
				continue
			}
			if fn != "" && calls[fn] == "" &&
				(op == "CALL" || op == "JMP" && strings.HasSuffix(arg, "(SB)")) {
				calls[fn] = fmt.Sprintf("%s:%d", path, i+1)
			}
		}
	}
	return calls, nil
}

// walk scans one function body for allocating constructs and checks its
// calls by contract (checkCall).
func (c *checker) walk(p *lintkit.Pass, decl *ast.FuncDecl, report func(reason)) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.direct(p, n.Pos(), "allocates: function literal (closure)", report)
			return false
		case *ast.GoStmt:
			c.direct(p, n.Pos(), "allocates: go statement", report)
			return false
		case *ast.DeferStmt:
			c.direct(p, n.Pos(), "uses defer, which may allocate; unlock explicitly", report)
			return false
		case *ast.CompositeLit:
			if t := p.TypesInfo.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice:
					c.direct(p, n.Pos(), "allocates: map/slice composite literal", report)
				}
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.direct(p, n.Pos(), "allocates: &composite literal escapes to the heap", report)
					return false
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(p.TypesInfo.TypeOf(n)) {
				c.direct(p, n.Pos(), "allocates: string concatenation", report)
			}
			return true
		case *ast.ReturnStmt:
			c.checkReturnBoxing(p, decl, n, report)
			return true
		case *ast.AssignStmt:
			c.checkAssignBoxing(p, n, report)
			return true
		case *ast.CallExpr:
			return c.checkCall(p, n, report)
		}
		return true
	}
	ast.Inspect(decl.Body, visit)
}

// direct reports a construct-level finding.
func (c *checker) direct(p *lintkit.Pass, pos token.Pos, what string, report func(reason)) {
	report(reason{pos: pos, pass: p, what: what})
}

// checkCall handles one call site. Returns false to prune the argument
// subtree (panic's failure path).
func (c *checker) checkCall(p *lintkit.Pass, call *ast.CallExpr, report func(reason)) bool {
	// Builtins and conversions first: they have no *types.Func.
	if tv, ok := p.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(p, call, tv.Type, report)
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "copy", "delete", "min", "max":
				return true
			case "panic":
				return false // the failure path may allocate what it dies with
			case "append":
				c.direct(p, call.Pos(), "allocates: append may grow its backing array", report)
				return true
			case "make", "new":
				c.direct(p, call.Pos(), "allocates: "+b.Name(), report)
				return true
			default:
				c.direct(p, call.Pos(), "calls builtin "+b.Name()+", which may allocate", report)
				return true
			}
		}
	}

	callee := lintkit.FuncOf(p.TypesInfo, call.Fun)
	if callee == nil {
		c.direct(p, call.Pos(),
			"calls through a function value, which cannot be proven allocation-free", report)
		return true
	}
	c.checkArgBoxing(p, call, callee, report)

	if allowedCallee(callee) {
		return true
	}
	key := lintkit.FuncKey(callee)
	if c.annotated[key] {
		return true // proven boundary: its own check covers the body
	}
	if callee.Pkg().Path() != p.Pkg.Path() {
		report(reason{pos: call.Pos(), pass: p, boundary: true,
			what: fmt.Sprintf("calls %s.%s, which is neither //hcsgc:alloc-free nor on the "+
				"allocation-free allowlist", callee.Pkg().Path(), callee.Name())})
		return true
	}
	if r := c.prove(key, report); r != nil {
		report(reason{pos: call.Pos(), pass: p,
			what: fmt.Sprintf("calls %s, which %s (%s)",
				callee.Name(), r.what, r.pass.Fset.Position(r.pos))})
	}
	return true
}

// prove memoizes the allocation-freedom of an unannotated same-package
// function, returning nil when clean or the first reason found. Boundary
// findings in its body go to report, the caller's reporter, as they are.
func (c *checker) prove(key string, report func(reason)) *reason {
	if r, ok := c.verdicts[key]; ok {
		return r
	}
	da, ok := c.decls[key]
	if !ok {
		// No source (e.g. declared via assembly or export data only):
		// unprovable.
		return &reason{what: "has no source body to prove", pass: c.passes[0]}
	}
	if c.proving[key] {
		return nil // recursion: assume clean while in progress
	}
	c.proving[key] = true
	var first *reason
	c.walk(da.pass, da.decl, func(r reason) {
		if r.boundary {
			report(r)
		} else if first == nil {
			first = &r
		}
	})
	delete(c.proving, key)
	c.verdicts[key] = first
	return first
}

// checkConversion flags conversions that allocate: string <-> byte/rune
// slices, and conversion into an interface type (boxing).
func (c *checker) checkConversion(p *lintkit.Pass, call *ast.CallExpr, to types.Type, report func(reason)) {
	if len(call.Args) != 1 {
		return
	}
	from := p.TypesInfo.TypeOf(call.Args[0])
	switch {
	case isString(to) && isByteOrRuneSlice(from):
		c.direct(p, call.Pos(), "allocates: []byte/[]rune to string conversion", report)
	case isByteOrRuneSlice(to) && isString(from):
		c.direct(p, call.Pos(), "allocates: string to []byte/[]rune conversion", report)
	case isInterface(to) && from != nil && !isInterface(from):
		c.direct(p, call.Pos(), "allocates: conversion boxes a concrete value into an interface", report)
	}
}

// checkArgBoxing flags concrete values passed to interface parameters
// and non-empty variadic tails (the tail slice is heap-allocated).
func (c *checker) checkArgBoxing(p *lintkit.Pass, call *ast.CallExpr, callee *types.Func, report func(reason)) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis == token.NoPos && i == n-1 {
				c.direct(p, call.Pos(),
					"allocates: variadic call materialises its argument slice", report)
			}
			st, ok := params.At(n - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		at := p.TypesInfo.TypeOf(arg)
		if isInterface(pt) && at != nil && !isInterface(at) && !isUntypedNil(p.TypesInfo, arg) {
			c.direct(p, arg.Pos(),
				"allocates: concrete argument boxed into interface parameter", report)
		}
	}
}

// checkReturnBoxing flags concrete values returned as interface results.
func (c *checker) checkReturnBoxing(p *lintkit.Pass, decl *ast.FuncDecl, ret *ast.ReturnStmt, report func(reason)) {
	f, ok := p.TypesInfo.Defs[decl.Name].(*types.Func)
	if !ok || f == nil {
		return
	}
	sig := f.Type().(*types.Signature)
	res := sig.Results()
	if res.Len() != len(ret.Results) {
		return
	}
	for i, e := range ret.Results {
		rt := res.At(i).Type()
		et := p.TypesInfo.TypeOf(e)
		if isInterface(rt) && et != nil && !isInterface(et) && !isUntypedNil(p.TypesInfo, e) {
			c.direct(p, e.Pos(), "allocates: concrete value boxed into interface result", report)
		}
	}
}

// checkAssignBoxing flags concrete values assigned into interface
// variables.
func (c *checker) checkAssignBoxing(p *lintkit.Pass, as *ast.AssignStmt, report func(reason)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := p.TypesInfo.TypeOf(as.Lhs[i])
		rt := p.TypesInfo.TypeOf(as.Rhs[i])
		if isInterface(lt) && rt != nil && !isInterface(rt) && !isUntypedNil(p.TypesInfo, as.Rhs[i]) {
			c.direct(p, as.Rhs[i].Pos(), "allocates: concrete value boxed into interface variable", report)
		}
	}
}

// allowedCallee reports whether the callee is on the allocation-free
// allowlist: whole trusted packages, runtime.Gosched, the sync lock
// primitives (locking never allocates; contention parks on runtime
// structures, not the Go heap), and the time.Now/time.Since clock reads.
func allowedCallee(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	if allowedPkgs[pkg.Path()] {
		return true
	}
	if pkg.Path() == "runtime" && f.Name() == "Gosched" {
		return true
	}
	if pkg.Path() == "sync" {
		switch f.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
			return true
		}
	}
	if pkg.Path() == "time" {
		// Clock reads for contended-wait attribution: both return stack
		// values (time.Time / time.Duration) and never touch the Go heap.
		switch f.Name() {
		case "Now", "Since":
			return true
		}
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
