package lintkit

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file is the analysistest equivalent: golden packages live under
// <root>/src/<importpath>/ (GOPATH layout), are type-checked hermetically
// — imports resolve only against other fixture packages, so stdlib or
// hcsgc dependencies are stubbed in the fixture tree — and carry
// expectations as x/tools-style trailing comments:
//
//	p.words[0] = 1 // want `accessed atomically`
//
// Each `want` takes one or more quoted regexps that must match a
// diagnostic reported on that line; diagnostics without a matching want,
// and wants without a matching diagnostic, fail the test.

// fixtureLoader loads GOPATH-layout packages from a testdata root.
type fixtureLoader struct {
	root    string // .../testdata (contains src/)
	fset    *token.FileSet
	pkgs    map[string]*Package
	loading map[string]bool
}

// Import implements types.Importer over the fixture tree.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (l *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("fixture import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.root, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q: %w (stub it under %s/src)", path, err, l.root)
	}
	var goFiles, otherFiles []string
	for _, e := range entries {
		switch name := e.Name(); {
		case e.IsDir():
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			goFiles = append(goFiles, name)
		case strings.HasSuffix(name, ".s"):
			otherFiles = append(otherFiles, filepath.Join(dir, name))
		}
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("fixture package %q has no Go files in %s", path, dir)
	}

	var files []*ast.File
	var paths []string
	for _, name := range goFiles {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		paths = append(paths, full)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %q: %w", path, err)
	}
	pkg := &Package{
		ImportPath: path,
		Dir:        dir,
		GoFiles:    paths,
		OtherFiles: otherFiles,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadFixture loads the fixture package at <root>/src/<target> plus its
// transitive fixture dependencies, returning every loaded package (the
// target last is not guaranteed; use ImportPath to pick).
func LoadFixture(root, target string) ([]*Package, error) {
	l := &fixtureLoader{
		root:    root,
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	if _, err := l.load(target); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range l.pkgs {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// RunFixture loads <root>/src/<target>, runs the analyzers over the
// loaded fixture set, and checks every diagnostic against the `want`
// comments in the fixture sources. A fixture tree without want comments
// therefore asserts the analyzers stay silent on it.
func RunFixture(t *testing.T, root, target string, analyzers ...*Analyzer) {
	t.Helper()
	pkgs, err := LoadFixture(root, target)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	wants, err := collectWants(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// want is one expectation: a regexp that must match a diagnostic on
// file:line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// quotedRE matches one Go-quoted string or backquoted string.
var quotedRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(pkgs []*Package) ([]want, error) {
	var wants []want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					quoted := quotedRE.FindAllString(m[1], -1)
					if len(quoted) == 0 {
						return nil, fmt.Errorf("%s: malformed want comment %q", pos, c.Text)
					}
					for _, q := range quoted {
						s, err := strconv.Unquote(q)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want pattern %s: %w", pos, q, err)
						}
						re, err := regexp.Compile(s)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want regexp %q: %w", pos, s, err)
						}
						wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants, nil
}
