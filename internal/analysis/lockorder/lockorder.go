// Package lockorder builds the module's lock-acquisition order graph and
// rejects the two ways the sharding refactor can deadlock us: acquiring
// mutexes in inconsistent orders on different paths (inversion), and
// holding a lock across a safepoint boundary — a call that may reach
// Safepoint/poll/Blocked/beginBlocked — so that a stopped world queues up
// behind the lock.
//
// Lock identity is structural: "pkgpath.Type.field" for a mutex struct
// field (every access path to the same field names the same lock),
// "pkgpath.name" for a package-level mutex. Acquisition edges A -> B are
// recorded when B is acquired — directly, or transitively through any
// callee — inside A's Lock..Unlock bracket (source order, defer-aware).
//
// Two ordering rules run over the edges:
//
//   - inversion: an edge A -> B where some path also acquires A while
//     holding B (the edge lies on a cycle) is reported on both paths;
//   - declared order: a mutex field or package var may carry a
//     //hcsgc:lock-order N comment; an edge from a higher rank to a
//     lower one violates the declaration even before a second path
//     exists. The collector's hierarchy is declared as
//     cycleMu(10) < mutMu(20) < medMu(30) < heap.mu(40), with the
//     contention plane (70) above those.
//
// Holding a lock across a safepoint boundary is reported unless the
// function is //hcsgc:gc-thread, //hcsgc:stw-only, or owns the pause
// (runCycle holding cycleMu across the STW is the designed exception).
package lockorder

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"hcsgc/internal/analysis/lintkit"
)

// Analyzer is the lockorder pass.
var Analyzer = &lintkit.Analyzer{
	Name: "lockorder",
	Doc: "lock acquisitions must be consistently ordered (no inversions, " +
		"//hcsgc:lock-order ranks respected) and no lock may be held across a " +
		"safepoint boundary outside GC-side code",
	RunModule: runModule,
}

// boundaryNames are the safepoint-boundary callees: reaching one with a
// lock held stalls every stop-the-world behind that lock.
var boundaryNames = map[string]bool{
	"Safepoint": true, "poll": true, "Blocked": true, "beginBlocked": true,
}

// An edge is one observed acquisition order: to acquired while from held.
type edge struct{ from, to string }

// siteInfo locates the first site witnessing a finding.
type siteInfo struct {
	pass *lintkit.Pass
	pos  token.Pos
	fn   string // enclosing function name
	via  string // callee name for transitive acquisitions, "" for direct
}

// analysisResult is everything derived from the module's passes.
type analysisResult struct {
	edges map[edge]siteInfo
	// spSites are lock-held-across-safepoint findings keyed by position.
	spSites map[token.Pos]spSite
	ranks   map[string]int
}

type spSite struct {
	pass *lintkit.Pass
	lock string
	fn   string
	via  string
}

func runModule(m *lintkit.ModulePass) error {
	r := build(m.Pkgs)
	viol := violations(r)
	sort.Slice(viol, func(i, j int) bool {
		a, b := r.edges[viol[i]], r.edges[viol[j]]
		return a.pos < b.pos
	})
	for _, e := range viol {
		si := r.edges[e]
		how := ""
		if si.via != "" {
			how = " (via " + si.via + ")"
		}
		ra, okA := r.ranks[e.from]
		rb, okB := r.ranks[e.to]
		if okA && okB && ra >= rb {
			si.pass.Reportf(si.pos,
				"%s acquires %s (//hcsgc:lock-order %d) while holding %s "+
					"(//hcsgc:lock-order %d)%s; declared order requires the lower rank first",
				si.fn, e.to, rb, e.from, ra, how)
		} else {
			si.pass.Reportf(si.pos,
				"%s acquires %s while holding %s%s, but another path acquires them "+
					"in the opposite order (lock-order inversion)",
				si.fn, e.to, e.from, how)
		}
	}

	var spPos []token.Pos
	for pos := range r.spSites {
		spPos = append(spPos, pos)
	}
	sort.Slice(spPos, func(i, j int) bool { return spPos[i] < spPos[j] })
	for _, pos := range spPos {
		s := r.spSites[pos]
		how := ""
		if s.via != "" {
			how = " via " + s.via
		}
		s.pass.Reportf(pos,
			"%s holds %s across a safepoint boundary%s; a stop-the-world will "+
				"queue behind this lock",
			s.fn, s.lock, how)
	}
	return nil
}

// violations returns the edges that violate either ordering rule, in no
// particular order.
func violations(r *analysisResult) []edge {
	var out []edge
	for e := range r.edges {
		ra, okA := r.ranks[e.from]
		rb, okB := r.ranks[e.to]
		if okA && okB {
			// Declared order is authoritative: a consistent edge is
			// sanctioned even if the reverse (violating) edge exists —
			// the reverse edge carries the report.
			if ra >= rb {
				out = append(out, e)
			}
			continue
		}
		if onCycle(r.edges, e) {
			out = append(out, e)
		}
	}
	return out
}

// onCycle reports whether following edges from e.to can reach e.from.
func onCycle(edges map[edge]siteInfo, e edge) bool {
	seen := map[string]bool{e.to: true}
	stack := []string{e.to}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == e.from {
			return true
		}
		for other := range edges {
			if other.from == cur && !seen[other.to] {
				seen[other.to] = true
				stack = append(stack, other.to)
			}
		}
	}
	return false
}

// build runs the full analysis over the given passes.
func build(passes []*lintkit.Pass) *analysisResult {
	graph := lintkit.BuildCallGraph(passes)
	r := &analysisResult{
		edges:   make(map[edge]siteInfo),
		spSites: make(map[token.Pos]spSite),
		ranks:   collectRanks(passes),
	}

	// acquires: per function, the locks its body takes directly.
	acquires := make(map[string]map[string]bool)
	// boundary: per function, whether the body calls a safepoint
	// boundary directly.
	boundary := make(map[string]bool)
	for key, node := range graph.Nodes {
		p := node.Pass
		acq := make(map[string]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if mu, dir := lintkit.MutexOp(p.TypesInfo, p.Pkg.Path(), call); dir > 0 {
				acq[mu] = true
			}
			if boundaryNames[calleeName(call)] {
				boundary[key] = true
			}
			return true
		})
		acquires[key] = acq
	}

	// Transitive closure over call edges: what may a call into f acquire,
	// and may it reach a safepoint boundary?
	acqStar := make(map[string]map[string]bool, len(acquires))
	for key, acq := range acquires {
		s := make(map[string]bool, len(acq))
		for k := range acq {
			s[k] = true
		}
		acqStar[key] = s
	}
	bStar := make(map[string]bool, len(boundary))
	for k, v := range boundary {
		bStar[k] = v
	}
	for changed := true; changed; {
		changed = false
		for key, node := range graph.Nodes {
			for _, cs := range node.Calls {
				for mu := range acqStar[cs.CalleeKey] {
					if !acqStar[key][mu] {
						acqStar[key][mu] = true
						changed = true
					}
				}
				if bStar[cs.CalleeKey] && !bStar[key] {
					bStar[key] = true
					changed = true
				}
			}
		}
	}

	// Walk every lock bracket: direct acquisitions and calls inside it
	// produce edges; boundary reach produces safepoint findings.
	for key, node := range graph.Nodes {
		p := node.Pass
		decl := node.Decl
		brackets := lintkit.CollectBrackets(decl.Body, func(call *ast.CallExpr, deferred bool) (string, int) {
			return lintkit.MutexOp(p.TypesInfo, p.Pkg.Path(), call)
		})
		if len(brackets) == 0 {
			continue
		}
		exemptSP := lintkit.HasDirective(decl, "gc-thread") ||
			lintkit.HasDirective(decl, "stw-only") || lintkit.IsPauseOwner(decl)

		type acqAt struct {
			pos token.Pos
			mu  string
		}
		var directAcqs []acqAt
		var boundaryCalls []token.Pos
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if mu, dir := lintkit.MutexOp(p.TypesInfo, p.Pkg.Path(), call); dir > 0 {
				directAcqs = append(directAcqs, acqAt{call.Pos(), mu})
			}
			if boundaryNames[calleeName(call)] {
				boundaryCalls = append(boundaryCalls, call.Pos())
			}
			return true
		})

		for _, b := range brackets {
			for _, a := range directAcqs {
				if a.mu != b.Owner && b.Contains(a.pos) {
					addEdge(r, edge{b.Owner, a.mu}, siteInfo{p, a.pos, decl.Name.Name, ""})
				}
			}
			for _, cs := range node.Calls {
				if !b.Contains(cs.Call.Pos()) {
					continue
				}
				if cs.CalleeKey == key {
					continue // recursion: same bracket, no new order
				}
				for mu := range acqStar[cs.CalleeKey] {
					if mu != b.Owner {
						addEdge(r, edge{b.Owner, mu},
							siteInfo{p, cs.Call.Pos(), decl.Name.Name, cs.Callee.Name()})
					}
				}
			}
			if exemptSP {
				continue
			}
			for _, pos := range boundaryCalls {
				if b.Contains(pos) {
					addSP(r, pos, spSite{p, b.Owner, decl.Name.Name, ""})
				}
			}
			for _, cs := range node.Calls {
				if b.Contains(cs.Call.Pos()) && bStar[cs.CalleeKey] {
					addSP(r, cs.Call.Pos(), spSite{p, b.Owner, decl.Name.Name, cs.Callee.Name()})
				}
			}
		}
	}
	return r
}

func addEdge(r *analysisResult, e edge, si siteInfo) {
	if old, ok := r.edges[e]; !ok || si.pos < old.pos {
		r.edges[e] = si
	}
}

func addSP(r *analysisResult, pos token.Pos, s spSite) {
	if _, ok := r.spSites[pos]; !ok {
		r.spSites[pos] = s
	}
}

// collectRanks parses //hcsgc:lock-order N comments on mutex struct
// fields and package-level mutex vars, keyed the same way MutexOp names
// locks.
func collectRanks(passes []*lintkit.Pass) map[string]int {
	ranks := make(map[string]int)
	for _, p := range passes {
		for _, file := range p.Files {
			for _, d := range file.Decls {
				gen, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				switch gen.Tok {
				case token.TYPE:
					for _, spec := range gen.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							rank, ok := lockOrderOf(field.Doc, field.Comment)
							if !ok {
								continue
							}
							for _, name := range field.Names {
								ranks[p.Pkg.Path()+"."+ts.Name.Name+"."+name.Name] = rank
							}
						}
					}
				case token.VAR:
					for _, spec := range gen.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						rank, ok := lockOrderOf(vs.Doc, gen.Doc)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							ranks[p.Pkg.Path()+"."+name.Name] = rank
						}
					}
				}
			}
		}
	}
	return ranks
}

// lockOrderOf extracts //hcsgc:lock-order N from the first non-nil
// comment group.
func lockOrderOf(groups ...*ast.CommentGroup) (int, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			rest, ok := strings.CutPrefix(c.Text, "//hcsgc:lock-order")
			if !ok {
				continue
			}
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err == nil {
				return n, true
			}
		}
	}
	return 0, false
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
