package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcsgc/internal/analysis"
	"hcsgc/internal/analysis/lintkit"
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestRepoClean is the suite's own acceptance bar: the repository must
// carry zero invariant violations (annotations and fixes landed with the
// analyzers). A failure here is a real finding — fix the code or, if the
// new call site is legitimately GC-side, annotate it.
//
// internal/core alone must come out the same: its same-module dependencies
// are then loaded as DepOnly packages, which the module-wide analyzers see
// (bodies, annotations, lock ranks) and nothing is reported into.
func TestRepoClean(t *testing.T) {
	for _, pattern := range []string{"./...", "./internal/core/"} {
		diags, err := run(moduleRoot(t), []string{pattern}, analysis.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: unexpected violation: %s", pattern, d)
		}
	}
}

// TestRegressionGuard proves the suite actually guards the invariants:
// deliberately reverting the verifier's annotations in a scratch copy of
// the module must re-surface both the barriercheck and stwonly findings.
func TestRegressionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("copies the module and shells out to go list")
	}
	root := moduleRoot(t)
	tmp := t.TempDir()
	copyModule(t, root, tmp)

	verify := filepath.Join(tmp, "internal", "core", "verify.go")
	src, err := os.ReadFile(verify)
	if err != nil {
		t.Fatal(err)
	}
	reverted := strings.ReplaceAll(string(src), "//hcsgc:gc-thread", "//")
	reverted = strings.ReplaceAll(reverted, "//hcsgc:stw-only", "//")
	if reverted == string(src) {
		t.Fatal("verify.go carries no annotations to revert; update this test")
	}
	if err := os.WriteFile(verify, []byte(reverted), 0o644); err != nil {
		t.Fatal(err)
	}

	diags, err := run(tmp, []string{"./internal/..."}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	var sawBarrier, sawSTW bool
	for _, d := range diags {
		switch d.Analyzer {
		case "barriercheck":
			sawBarrier = true // verifyObject's raw LoadWord lost its standing
		case "stwonly":
			sawSTW = true // verifyHeap may no longer call heap.VerifyAccounting
		}
	}
	if !sawBarrier {
		t.Error("reverting //hcsgc:gc-thread in verify.go raised no barriercheck diagnostic")
	}
	if !sawSTW {
		t.Error("reverting //hcsgc:stw-only in verify.go raised no stwonly diagnostic")
	}
}

// mutantGuard copies the module into a scratch dir, applies a textual
// mutation to one file, runs the full analyzer suite over patterns, and
// asserts the expected analyzer — and only that analyzer — reports the
// regression. This is the proof that each checker actually guards its
// invariant, not just that the tree happens to be clean.
func mutantGuard(t *testing.T, relFile, oldSrc, newSrc string, patterns []string, want string) {
	t.Helper()
	if testing.Short() {
		t.Skip("copies the module and shells out to go list")
	}
	root := moduleRoot(t)
	tmp := t.TempDir()
	copyModule(t, root, tmp)

	path := filepath.Join(tmp, filepath.FromSlash(relFile))
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.ReplaceAll(string(src), oldSrc, newSrc)
	if mutated == string(src) {
		t.Fatalf("%s no longer contains %q; update this guard", relFile, oldSrc)
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	diags, err := run(tmp, patterns, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := make(map[string]int)
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer[want] == 0 {
		t.Errorf("mutating %s raised no %s diagnostic (got %v)", relFile, want, diags)
	}
	for name, n := range byAnalyzer {
		if name != want {
			t.Errorf("mutation also tripped %s (%d diagnostics); the guard should be analyzer-specific", name, n)
		}
	}
}

// TestGuardBlockedcheck unwraps the KV server's measurement-boundary wait:
// a bare channel receive on an attached-mutator thread must re-surface the
// blockedcheck finding.
func TestGuardBlockedcheck(t *testing.T) {
	mutantGuard(t, "internal/workloads/kvserver.go",
		"m.Blocked(func() { <-serve })", "<-serve",
		[]string{"./internal/workloads/"}, "blockedcheck")
}

// TestGuardLockorder flips cycleMu's declared rank above mutMu's: the real
// cycle path holds cycleMu across forEachMutator's mutMu acquisition, so
// the declared order now contradicts the code and lockorder must fire.
func TestGuardLockorder(t *testing.T) {
	mutantGuard(t, "internal/core/collector.go",
		"//hcsgc:lock-order 10", "//hcsgc:lock-order 25",
		[]string{"./internal/core/"}, "lockorder")
}

// TestGuardAllocfree injects a per-mark allocation into markObject, the
// hottest //hcsgc:alloc-free function; allocfree must reject the body.
func TestGuardAllocfree(t *testing.T) {
	mutantGuard(t, "internal/core/worker.go",
		"size := objmodel.SizeBytes(header)",
		"size := objmodel.SizeBytes(header)\n\tgray := append([]uint64{}, addr)\n\t_ = gray",
		[]string{"./internal/core/"}, "allocfree")
}

// TestGuardAllocfreeAssembly adds a call to the cache model's set kernel:
// Core.Load and the caches' lookups reach it on every simulated access, and
// allocfree trusts its assembly only while it calls nothing.
func TestGuardAllocfreeAssembly(t *testing.T) {
	mutantGuard(t, "internal/simmem/kernel_amd64.s",
		"\tJEQ sixteen\n",
		"\tJEQ sixteen\n\tCALL ·xgetbv(SB)\n",
		[]string{"./internal/simmem/"}, "allocfree")
}

// TestGuardVtimepure adds a wall-clock read to the deterministic load
// generator; vtimepure must flag the unannotated time.Now.
func TestGuardVtimepure(t *testing.T) {
	mutantGuard(t, "internal/loadgen/loadgen.go",
		"import (\n\t\"fmt\"\n\t\"math\"\n\t\"sort\"\n)",
		"import (\n\t\"fmt\"\n\t\"math\"\n\t\"sort\"\n\t\"time\"\n)\n\n"+
			"func wallSeed() int64 { return time.Now().UnixNano() }",
		[]string{"./internal/loadgen/"}, "vtimepure")
}

// TestWriteJSON pins the artifact shape CI archives: a JSON array of
// {file,line,col,analyzer,message} objects, and "[]" (never "null") when
// the tree is clean so the artifact always parses.
func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint.json")
	if err := writeJSON(path, nil); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(clean)) != "[]" {
		t.Errorf("clean run wrote %q, want empty JSON array", clean)
	}

	diags := []lintkit.Diagnostic{{
		Pos:      token.Position{Filename: "internal/core/worker.go", Line: 131, Column: 2},
		Analyzer: "allocfree",
		Message:  "markObject allocates",
	}}
	if err := writeJSON(path, diags); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, data)
	}
	if len(decoded) != 1 {
		t.Fatalf("got %d entries, want 1", len(decoded))
	}
	got := decoded[0]
	if got["file"] != "internal/core/worker.go" || got["line"] != float64(131) ||
		got["col"] != float64(2) || got["analyzer"] != "allocfree" ||
		got["message"] != "markObject allocates" {
		t.Errorf("unexpected artifact entry: %v", got)
	}
}

// copyModule copies go.mod and every Go and assembly file (plus
// testdata-free directory structure) into dst, enough for `go list -export`
// to load the production packages.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, ".s") && rel != "go.mod" && rel != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
