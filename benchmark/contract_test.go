package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the declarations in metrics.go and workloads.go")

const contractPath = "../BENCHMARK.json"

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []contractWork `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []contractTier `json:"per_layer"`
}

type contractWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractTier struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func declaredContract() contract {
	c := contract{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
	}
	for _, s := range specs {
		c.Workloads = append(c.Workloads, contractWork{s.Name, s.Why})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractTier{d.Name, d.Unit, d.Better})
	}
	return c
}

func TestContractFileMatchesDeclarations(t *testing.T) {
	want, err := json.MarshalIndent(declaredContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(contractPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of date; run `go test ./benchmark -run TestContractFile -update`", contractPath)
	}
}

func TestContractLimits(t *testing.T) {
	c := declaredContract()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	haveSetup := false
	for _, d := range c.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %+v: bad unit, direction or bound", d)
		}
		if d.Name == "setup_s" {
			haveSetup = d.Unit == "s" && d.Better == lower
			for _, other := range c.EndToEnd {
				if other.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !haveSetup {
		t.Error("setup_s (unit s, lower is better) missing")
	}
	for _, d := range c.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("per-layer %+v: bad unit or direction", d)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
}

// The -quick smoke: every workload, both passes, at tiny scales. Every
// check must pass and the emitted names must be exactly the declared ones.
func TestQuickRunEmitsDeclaredNames(t *testing.T) {
	out := t.TempDir()
	o, err := parseFlags([]string{"-quick", "-seed", "3", "-out", out}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var console bytes.Buffer
	res, err := run(o, &console)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("checks failed:\n%s", console.String())
	}
	keys := func(m map[string]metricOut) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	declared := func(ds []metricDecl) []string {
		var ks []string
		for _, d := range ds {
			ks = append(ks, d.Name)
		}
		sort.Strings(ks)
		return ks
	}
	if len(res.Workloads) != len(specs) {
		t.Errorf("%d workloads ran, want %d", len(res.Workloads), len(specs))
	}
	for _, s := range specs {
		w := res.Workloads[s.Name]
		if w == nil {
			t.Errorf("workload %s missing from the result", s.Name)
			continue
		}
		if got, want := keys(w.EndToEnd), declared(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s end-to-end names:\n got %v\nwant %v", s.Name, got, want)
		}
		if got, want := keys(w.PerLayer), declared(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s per-layer names:\n got %v\nwant %v", s.Name, got, want)
		}
		for name, m := range w.EndToEnd {
			if !(m.Median > 0) {
				t.Errorf("%s %s = %v; end-to-end metrics are never zero", s.Name, name, m.Median)
			}
		}
		var shares float64
		for _, l := range hostLayers {
			shares += w.PerLayer[l+".host_share"].Median
		}
		if shares != 0 && (shares < 99 || shares > 101) { // a rep too short to be sampled has no shares
			t.Errorf("%s host shares sum to %v", s.Name, shares)
		}
		if w.OpsAttempted == 0 || w.OpsFailed != 0 {
			t.Errorf("%s ops attempted %d failed %d", s.Name, w.OpsAttempted, w.OpsFailed)
		}
	}

	// The last console line is the contract's JSON object.
	lines := strings.Split(strings.TrimSpace(console.String()), "\n")
	var last contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the contract object: %v", err)
	}
	if !last.Correct || last.Attempted < 1 || len(last.Metrics) != len(perLayer) {
		t.Errorf("last line: correct %v attempted %d, %d metrics", last.Correct, last.Attempted, len(last.Metrics))
	}

	for _, f := range []string{"result.json", "trace.json"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Error(err)
		}
	}
	reread, err := loadResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if reread.Env.Seed != 3 || !reread.Env.Quick || reread.Env.NProc < 1 || reread.Env.GoVersion == "" {
		t.Errorf("environment not recorded: %+v", reread.Env)
	}
	var cmp bytes.Buffer
	if code := compareResults(reread, reread, &cmp); code != 0 {
		t.Errorf("a result compared with itself exits %d:\n%s", code, cmp.String())
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	o, err := parseFlags([]string{"-workload", "nope", "-out", t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(o, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := parseFlags([]string{"-trace", "2"}, io.Discard); err == nil {
		t.Error("-trace 2 accepted")
	}
}
