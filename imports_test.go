package hcsgc_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// localityImporters are the only packages that may import the locality
// profiler: the package itself and the benchmark, whose
// locality.access_ns.shift12 probe still builds it. The runtime does not
// wire the profiler any more; ROADMAP item 7's benchmark change drops the
// probe, and the package goes with it.
var localityImporters = map[string]bool{"benchmark": true, "internal/locality": true}

// TestOnlyTheBenchmarkImportsLocality walks the repository's Go files, tests
// and examples included, and fails on any other package that imports
// hcsgc/internal/locality.
func TestOnlyTheBenchmarkImportsLocality(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (d.Name() == "testdata" || d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := path.Dir(filepath.ToSlash(p))
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); ip == "hcsgc/internal/locality" && !localityImporters[dir] {
				t.Errorf("%s imports hcsgc/internal/locality: only benchmark may, until ROADMAP item 7's benchmark change drops its probe and the package", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
