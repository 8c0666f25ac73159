// Package telemetrynames keeps the metrics namespace coherent. Every
// metric registered on a telemetry.Registry (Counter, Adopt, Gauge,
// Summary) must be named `hcsgc_<snake_case>` — the exporters emit names
// verbatim, so a stray `HcsgcPauseNs` or `pause-ns` silently forks the
// dashboard namespace.
//
// The registry is Prometheus-shaped: registering the same family name
// from several sites with different label values is the intended pattern
// (hcsgc_reloc_objects_total{who="gc"} and {who="mutator"}). What must
// stay consistent across those sites, and what this pass checks:
//
//   - kind: the same name registered as Counter at one site and Gauge at
//     another panics at runtime (Registry.get);
//   - help: get silently keeps the first help string, so divergent
//     help text at a second site is dead and the dashboards lie;
//   - labels come in key/value pairs: an odd argument count panics in
//     labelKey at first use;
//   - suffix conventions: `_total` is reserved for Counter families
//     (Prometheus semantics), and `_bucket`/`_sum`/`_count` are reserved
//     for the derived series histograms and summaries emit themselves.
//
// Names built at runtime (fmt.Sprintf in a loop) cannot be validated
// statically and are skipped; label-pair parity is checked regardless.
package telemetrynames

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"strings"

	"hcsgc/internal/analysis/lintkit"
)

// telemetryPkg is the import path of the metrics registry.
const telemetryPkg = "hcsgc/internal/telemetry"

// registerMethods maps (*telemetry.Registry) constructor name -> the kind
// of family it registers and the index of the first label argument (name
// and help precede it; Adopt also takes the caller's counter cell,
// Summary a quantile source).
var registerMethods = map[string]struct {
	kind       string
	labelStart int
}{
	"Counter": {"Counter", 2},
	"Adopt":   {"Counter", 3},
	"Gauge":   {"Gauge", 2},
	"Summary": {"Summary", 3},
}

// nameRE is the required shape of a metric name.
var nameRE = regexp.MustCompile(`^hcsgc_[a-z0-9_]+$`)

// reservedSuffixRE matches suffixes the Prometheus exposition format
// reserves for derived series: histograms and summaries emit
// `<family>_bucket`, `<family>_sum` and `<family>_count` lines themselves,
// so a base family carrying one of these suffixes collides with the
// derived series of a like-named histogram or summary.
var reservedSuffixRE = regexp.MustCompile(`_(bucket|sum|count)$`)

// Analyzer is the telemetrynames pass.
var Analyzer = &lintkit.Analyzer{
	Name: "telemetrynames",
	Doc: "metric names registered on telemetry.Registry must match " +
		"^hcsgc_[a-z0-9_]+$, and a family must be registered consistently: " +
		"same kind, same help text, labels in key/value pairs",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	type familySite struct {
		pos  token.Pos
		kind string
		help string // "" when not a compile-time constant
	}
	first := make(map[string]familySite)

	constString := func(e ast.Expr) (string, bool) {
		tv, ok := pass.TypesInfo.Types[e]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return "", false
		}
		return constant.StringVal(tv.Value), true
	}

	lintkit.ForEachFuncNode(pass, func(decl *ast.FuncDecl, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		f := lintkit.FuncOf(pass.TypesInfo, call.Fun)
		if f == nil {
			return true
		}
		reg, isReg := registerMethods[f.Name()]
		if !isReg || !lintkit.IsMethod(f, telemetryPkg, "Registry", f.Name()) {
			return true
		}
		kind, labelStart := reg.kind, reg.labelStart

		// Label pairs: statically countable unless spread with `labels...`.
		if call.Ellipsis == token.NoPos && len(call.Args) > labelStart &&
			(len(call.Args)-labelStart)%2 != 0 {
			pass.Reportf(call.Args[labelStart].Pos(),
				"odd number of label arguments to Registry.%s: labels are "+
					"(\"key\", \"value\") pairs; this panics in labelKey at first use",
				f.Name())
		}

		name, ok := constString(call.Args[0])
		if !ok {
			return true // runtime-built name: not statically checkable
		}
		if !nameRE.MatchString(name) {
			pass.Reportf(call.Args[0].Pos(),
				"metric name %q does not match ^hcsgc_[a-z0-9_]+$ "+
					"(exporters emit names verbatim; keep the namespace uniform)",
				name)
			return true
		}
		if m := reservedSuffixRE.FindString(name); m != "" {
			pass.Reportf(call.Args[0].Pos(),
				"metric name %q ends in the reserved suffix %q: histograms "+
					"and summaries emit *%s series themselves, so this family "+
					"collides with their derived series in the exposition",
				name, m, m)
			return true
		}
		help := ""
		if len(call.Args) > 1 {
			help, _ = constString(call.Args[1])
		}
		prev, seen := first[name]
		if !seen {
			first[name] = familySite{pos: call.Args[0].Pos(), kind: kind, help: help}
			// The _total convention is checked once, at the first site; a
			// later kind flip is the family-consistency diagnostic instead.
			if strings.HasSuffix(name, "_total") && kind != "Counter" {
				pass.Reportf(call.Args[0].Pos(),
					"metric %q ends in _total but is registered as a %s: the "+
						"_total suffix promises a monotonic counter to every "+
						"Prometheus consumer",
					name, kind)
			}
			return true
		}
		if prev.kind != kind {
			pass.Reportf(call.Args[0].Pos(),
				"metric %q registered as %s here but as %s at %s: "+
					"Registry.get panics on kind mismatch at runtime",
				name, kind, prev.kind, pass.Fset.Position(prev.pos))
			return true
		}
		if prev.help != "" && help != "" && prev.help != help {
			pass.Reportf(call.Args[1].Pos(),
				"metric %q registered with different help text than at %s: "+
					"the registry keeps the first help string, this one is dead",
				name, pass.Fset.Position(prev.pos))
		}
		return true
	})
	return nil
}
