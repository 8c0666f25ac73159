// Command hcsgc-lint runs the GC-core invariant checkers over the module
// (the CI entry point; every analyzer runs once, per package or
// module-wide as it declares):
//
//	go run ./cmd/hcsgc-lint ./...
//
// Exit status: 0 clean, 1 operational error (load/typecheck failure),
// 2 one or more invariant violations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"hcsgc/internal/analysis"
	"hcsgc/internal/analysis/lintkit"
)

func main() {
	analyzers := analysis.All()

	var list bool
	var only, jsonPath string
	flag.BoolVar(&list, "list", false, "list the analyzers and exit")
	flag.StringVar(&only, "only", "", "comma-separated analyzer names to run (default: all)")
	flag.StringVar(&jsonPath, "json", "",
		"also write the diagnostics as a JSON array to this file (\"-\" for stdout); written even when clean")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: hcsgc-lint [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	if only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*lintkit.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			var unknown []string
			for name := range keep {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "hcsgc-lint: unknown analyzer(s): %s\n", strings.Join(unknown, ", "))
			os.Exit(1)
		}
		analyzers = filtered
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcsgc-lint:", err)
		os.Exit(1)
	}
	diags, err := run(cwd, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcsgc-lint:", err)
		os.Exit(1)
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, diags); err != nil {
			fmt.Fprintln(os.Stderr, "hcsgc-lint:", err)
			os.Exit(1)
		}
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Println(d)
		}
		os.Exit(2)
	}
}

// jsonDiag is the machine-readable diagnostic shape CI archives as an
// artifact; keep the field set stable.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON renders the diagnostics as a JSON array ("[]" when clean, so
// the artifact always exists and always parses) to path, or stdout for "-".
func writeJSON(path string, diags []lintkit.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// run loads the packages and applies the analyzers; split out of main for
// the in-process tests.
func run(dir string, patterns []string, analyzers []*lintkit.Analyzer) ([]lintkit.Diagnostic, error) {
	pkgs, err := lintkit.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return lintkit.RunAnalyzers(pkgs, analyzers)
}
