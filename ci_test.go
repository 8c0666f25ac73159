package hcsgc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ciRun matches a CI `go test … -run '<pattern>' <args>` command line.
var ciRun = regexp.MustCompile(`go test .*-run '([^']*)'(.*)$`)

// testFunc matches a top-level Test or Benchmark function declaration.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)

// TestCIRunPatternsMatchTests: every alternative of every `go test -run`
// pattern in the CI workflow matches a Test or Benchmark function in the
// packages that command lists, so renaming or moving a test cannot
// silently empty a CI step. '^$' (run no tests) is exempt.
func TestCIRunPatternsMatchTests(t *testing.T) {
	const ci = ".github/workflows/ci.yml"
	data, err := os.ReadFile(ci)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for i, line := range strings.Split(string(data), "\n") {
		m := ciRun.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var pkgs []string
		for _, arg := range strings.Fields(m[2]) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				pkgs = append(pkgs, arg)
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("%s:%d: `go test -run` names no package", ci, i+1)
			continue
		}
		names := testNames(t, pkgs)
		for _, alt := range strings.Split(m[1], "|") {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s:%d: -run alternative %q: %v", ci, i+1, alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("%s:%d: -run alternative %q matches no test in %v", ci, i+1, alt, pkgs)
			}
		}
		steps++
	}
	if steps == 0 {
		t.Fatalf("%s has no `go test -run` step", ci)
	}
}

// testNames lists the Test and Benchmark functions of the packages a go
// test command names ("./..." includes every directory below).
func testNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "...")
		dir = filepath.Clean(dir)
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != dir && (!recursive || d.Name() == "testdata" || d.Name()[0] == '.') {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
