// The option audit as a regression guard: every settable value of the
// configuration structs has a caller outside tests and examples, or a
// stated reason to exist without one. A value with one caller is a
// constant (DESIGN.md "Calibrated constants").
package hcsgc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// auditedStructs are the configuration structs, as "package dir/Type".
var auditedStructs = []string{
	"./Options", "internal/core/Config", "internal/core/Knobs",
	"internal/workloads/RunConfig", "internal/telemetry/latency/Config",
	"./SignalsConfig",
	"internal/locality/Config", "internal/simmem/HierarchyConfig", "internal/simmem/CacheConfig",
	"internal/heap/Config", "internal/faultinject/Config", "internal/loadgen/Config",
}

// optionCount pins the number of settable values: a new knob is a
// deliberate act (it needs a non-test caller, and this number).
const optionCount = 79

// testOnlyOptions are the options only tests set, each with the reason a
// test could not reach the behaviour if the value were a constant.
var testOnlyOptions = map[string]string{
	"./Options.STWWatchdog":                     "nobody waits the default 30 s for a watchdog test",
	"internal/core/Config.STWWatchdog":          "carries Options.STWWatchdog",
	"./Options.StallRetries":                    "the seam the OOM and budget tests use to exhaust in one stall instead of sixteen",
	"internal/core/Config.StallRetries":         "carries Options.StallRetries",
	"internal/workloads/RunConfig.StallRetries": "carries Options.StallRetries",
	"internal/heap/Config.AddrSpaceBytes":       "address-space exhaustion is out of a test's reach at the default 512 GB",
}

// optionAudit is what parsing the repository's non-test, non-example
// sources says about the audited structs.
type optionAudit struct {
	fields map[string][]string        // struct -> exported field names
	called map[string]map[string]bool // struct -> field -> something sets it
}

type auditFile struct {
	ast *ast.File
	dir string
}

func auditOptions(t *testing.T) optionAudit {
	t.Helper()
	a := optionAudit{fields: map[string][]string{}, called: map[string]map[string]bool{}}
	for _, s := range auditedStructs {
		a.called[s] = map[string]bool{}
	}
	var files []auditFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (d.Name() == "testdata" || d.Name() == "examples" || d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		files = append(files, auditFile{f, path.Dir(filepath.ToSlash(p))})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1: the structs' fields, the aliases that name them from another
	// package, and the functions and methods that return one
	// (simmem.DefaultConfig).
	aliases, results := map[string]string{}, map[string]string{}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Type.Results.NumFields() == 1 {
				key, res := f.dir+"/"+fn.Name.Name, f.typeKey(fn.Type.Results.List[0].Type)
				if prev, dup := results[key]; dup && prev != res {
					res = "" // two methods of one name: ambiguous without types
				}
				results[key] = res
			}
			gd, _ := d.(*ast.GenDecl)
			if gd == nil {
				continue
			}
			for _, sp := range gd.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok {
					continue
				}
				key := f.dir + "/" + ts.Name.Name
				if ts.Assign.IsValid() {
					aliases[key] = f.typeKey(ts.Type)
				} else if st, ok := ts.Type.(*ast.StructType); ok && a.called[key] != nil {
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							if n.IsExported() {
								a.fields[key] = append(a.fields[key], n.Name)
							}
						}
					}
				}
			}
		}
	}
	// audited resolves a "dir/Name" key, through an alias if it is one, to
	// the audited struct it names ("" if none).
	audited := func(key string) string {
		if al, ok := aliases[key]; ok {
			key = al
		}
		if a.called[key] == nil {
			return ""
		}
		return key
	}
	// valueType is the audited struct an expression evidently yields:
	// T{…}, &T{…}, or a call of a function that returns T.
	valueType := func(f auditFile, e ast.Expr) string {
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = u.X
		}
		switch e := e.(type) {
		case *ast.CompositeLit:
			return audited(f.typeKey(e.Type))
		case *ast.CallExpr:
			return audited(results[f.typeKey(e.Fun)])
		}
		return ""
	}

	// Pass 2: callers. A keyed composite literal of an audited type sets the
	// fields it names; x.F = v, x.F += v and x.F[i] = v set F when x is a
	// parameter or local of audited type. Neither counts inside a
	// withDefaults / Default* function, and a key fed from a same-named field
	// (Costs: opts.Costs) only carries: it has a caller once its source has.
	carried := map[string][]string{}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && (strings.EqualFold(fn.Name.Name, "withDefaults") || strings.HasPrefix(fn.Name.Name, "Default")) {
				continue
			}
			vars := map[string]string{} // local or parameter name -> audited struct
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					for _, name := range n.Names {
						vars[name.Name] = audited(f.typeKey(n.Type))
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if n.Type != nil {
							vars[name.Name] = audited(f.typeKey(n.Type))
						} else if i < len(n.Values) {
							vars[name.Name] = valueType(f, n.Values[i])
						}
					}
				case *ast.CompositeLit:
					key := audited(f.typeKey(n.Type))
					for _, e := range n.Elts {
						kv, ok := e.(*ast.KeyValueExpr)
						if !ok || key == "" {
							continue
						}
						name := kv.Key.(*ast.Ident).Name
						if sel, ok := kv.Value.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
							carried[key] = append(carried[key], name)
						} else {
							a.called[key][name] = true
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && len(n.Rhs) == len(n.Lhs) {
							if vt := valueType(f, n.Rhs[i]); vt != "" || n.Tok == token.DEFINE {
								vars[id.Name] = vt
							}
						}
						if ix, ok := lhs.(*ast.IndexExpr); ok {
							lhs = ix.X
						}
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok && vars[x.Name] != "" {
								a.called[vars[x.Name]][sel.Sel.Name] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for s, names := range carried {
			for _, name := range names {
				for src := range a.called {
					if src != s && a.called[src][name] && !a.called[s][name] {
						a.called[s][name], changed = true, true
					}
				}
			}
		}
	}
	return a
}

// typeKey resolves a type or callee expression to "dir/Name" by syntax
// alone; pointers are looked through.
func (f auditFile) typeKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return f.typeKey(e.X)
	case *ast.Ident:
		return f.dir + "/" + e.Name
	case *ast.SelectorExpr:
		pkg, _ := e.X.(*ast.Ident)
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, name := strings.TrimPrefix(p, "hcsgc/"), path.Base(p)
			if p == "hcsgc" {
				dir = "."
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			if pkg != nil && name == pkg.Name {
				return dir + "/" + e.Sel.Name
			}
		}
		return f.dir + "/" + e.Sel.Name // x.method of this package
	}
	return ""
}

func TestEveryOptionHasACaller(t *testing.T) {
	a := auditOptions(t)
	var orphans []string
	allowed := map[string]bool{}
	for s, fields := range a.fields {
		for _, f := range fields {
			id := s + "." + f
			_, allowed[id] = testOnlyOptions[id]
			switch {
			case !a.called[s][f] && !allowed[id]:
				orphans = append(orphans, id)
			case a.called[s][f] && allowed[id]:
				t.Errorf("%s has a caller now: drop it from testOnlyOptions", id)
			}
		}
	}
	sort.Strings(orphans)
	for _, id := range orphans {
		t.Errorf("%s: nothing outside tests and examples sets it — make it a constant, or give testOnlyOptions the reason", id)
	}
	for id := range testOnlyOptions {
		if !allowed[id] {
			t.Errorf("testOnlyOptions names %s, which is not a field of an audited struct", id)
		}
	}
}

func TestOptionCount(t *testing.T) {
	a := auditOptions(t)
	n := 0
	for _, s := range auditedStructs {
		if len(a.fields[s]) == 0 {
			t.Errorf("%s: struct not found", s)
		}
		n += len(a.fields[s])
	}
	if n != optionCount {
		t.Errorf("%d settable values in the %d configuration structs, want %d: a new option needs a caller that is not a test (TestEveryOptionHasACaller) and a deliberate edit of optionCount; a removed one lowers it",
			n, len(auditedStructs), optionCount)
	}
}
