package lintkit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	// DepOnly marks a same-module dependency loaded only so module-wide
	// analyzers can see its declarations and annotations (alloc-free
	// contracts, lock ranks, call-graph bodies). Per-package analyzers do
	// not run on it and no diagnostics are reported into it.
	DepOnly bool

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg mirrors the `go list -json` fields the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matched by patterns (relative to dir,
// "./..." style) and returns them ready for analysis. It shells out to
// `go list -export` so the go command resolves build tags, module paths
// and compiles export data for every dependency; the packages themselves
// are parsed and type-checked from source so analyzers see full syntax.
//
// Test files are not loaded: the invariants guard production code paths,
// and tests exercise raw memory and stale colors on purpose.
//
// Dependencies inside the same module are loaded from source as DepOnly
// packages: module-wide analyzers need their bodies and directive
// comments (a //hcsgc:alloc-free annotation on a heap function must be
// visible when only internal/core is being linted), but they produce no
// diagnostics of their own.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,DepOnly,Incomplete,Error",
		"-deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %v: %v\n%s", patterns, err, stderr.String())
	}

	modPath := modulePath(dir)
	inModule := func(path string) bool {
		return modPath != "" && (path == modPath || strings.HasPrefix(path, modPath+"/"))
	}

	exports := make(map[string]string) // import path -> export data file
	var targets []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly || inModule(p.ImportPath) {
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, p := range targets {
		if len(p.GoFiles) == 0 || len(p.CgoFiles) > 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = p.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// modulePath returns the main module's path, or "" outside a module.
func modulePath(dir string) string {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	var paths []string
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		files = append(files, f)
		paths = append(paths, path)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		GoFiles:    paths,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// NewTypesInfo allocates the types.Info maps the analyzers rely on.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
