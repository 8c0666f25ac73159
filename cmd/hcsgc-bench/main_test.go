package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hcsgc"
	"hcsgc/internal/bench"
)

func TestParseConfigs(t *testing.T) {
	got, err := parseConfigs("0, 4,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("parseConfigs = %v", got)
	}
	if _, err := parseConfigs("0,x"); err == nil {
		t.Fatal("bad config id must error")
	}
	if _, err := parseConfigs(""); err == nil {
		t.Fatal("empty string must error (empty field)")
	}
}

// quietJob is a job with the given flags set, as run builds it after
// parsing, with output discarded, no progress lines, and an optional
// telemetry sink attached.
func quietJob(sink *hcsgc.TelemetrySink, o options) *job {
	return &job{options: o, stdout: io.Discard, sink: sink}
}

// runMode resolves the job's -report against the table and runs it.
func runMode(t *testing.T, j *job) error {
	t.Helper()
	m, err := selectMode(j, nil)
	if err != nil {
		return err
	}
	if m == nil {
		t.Fatal("job selects no report mode")
	}
	return m.run(j)
}

func TestRunOneTables(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		if err := runOne(quietJob(nil, options{}), id, nil); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRunOneUnknown(t *testing.T) {
	if err := runOne(quietJob(nil, options{}), "nonesuch", nil); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunOneTinyFigure(t *testing.T) {
	j := quietJob(nil, options{runs: 1, scale: 0.01, seed: 1})
	j.configs = []int{0, 5}
	if err := runOne(j, "fig13", nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunOneWithTelemetry drives a tiny experiment with the telemetry
// sink attached (the -telemetry-addr path) and checks that the metrics
// endpoint would serve the core schema afterwards.
func TestRunOneWithTelemetry(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	j := quietJob(sink, options{runs: 1, scale: 0.005, seed: 1})
	j.configs = []int{0, 4}
	if err := runOne(j, "fig4", nil); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sink.Metrics().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"hcsgc_gc_cycles_total",
		`hcsgc_reloc_objects_total{who="gc"}`,
		`hcsgc_reloc_objects_total{who="mutator"}`,
		`hcsgc_signal_value{signal="cold_frac"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRunLatencyTiny drives -report explain end to end on a tiny
// workload, with the telemetry sink attached so the latency tracker's HDR
// summaries and MMU gauges land in the exposition.
func TestRunLatencyTiny(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	// Scale 0.03 is the smallest fig4 that actually triggers GC cycles
	// (ExplainAB.Validate requires recorded pauses).
	j := quietJob(sink, options{report: "explain", runs: 1, scale: 0.03, seed: 1})
	if err := runMode(t, j); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sink.Metrics().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE hcsgc_pause_cycles summary",
		`hcsgc_pause_cycles{phase="stw1",quantile="0.99"}`,
		`hcsgc_mmu_ratio{window_cycles="100000"}`,
		`hcsgc_barrier_path_total{path="relocate"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRunLatencyBadConfigs rejects a malformed -configs pair.
func TestRunLatencyBadConfigs(t *testing.T) {
	j := quietJob(nil, options{report: "explain", runs: 1, scale: 0.005, seed: 1})
	j.configs = []int{3}
	if err := runMode(t, j); err == nil {
		t.Fatal("single config id must error")
	}
}

// TestWriteList pins the -list output shape: every experiment id leads
// its line with a one-line description after it, and every report mode
// of the table is enumerated the same way.
func TestWriteList(t *testing.T) {
	var b strings.Builder
	writeList(&b)
	out := b.String()
	for _, id := range append([]string{"fig4", "fig13", "kv", "table2"}, modeNames()...) {
		found := false
		for _, line := range strings.Split(out, "\n") {
			fields := strings.Fields(line)
			if len(fields) > 1 && fields[0] == id {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("-list output missing described entry for %q:\n%s", id, out)
		}
	}
	for _, want := range []string{"(-report", "ablate:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestRunKVTiny drives -report kv end to end at tiny scale with the
// telemetry sink attached, writing the JSON report, and checks the
// hcsgc_kv_* families land in the exposition.
func TestRunKVTiny(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	jsonPath := t.TempDir() + "/kv-report.json"
	j := quietJob(sink, options{report: "kv", runs: 1, scale: 0.01, json: jsonPath})
	if err := runMode(t, j); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("kv json artifact: %v", err)
	}
	var ab bench.KVAB
	if err := json.Unmarshal(data, &ab); err != nil {
		t.Fatalf("kv json artifact decode: %v", err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatalf("kv json artifact invalid: %v", err)
	}
	if ab.Seed != 1 {
		t.Fatalf("report seed = %d, want the mode's default 1", ab.Seed)
	}
	var b strings.Builder
	sink.Metrics().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`hcsgc_kv_requests_total{op="get"}`,
		`hcsgc_kv_lookups_total{result="hit"}`,
		`hcsgc_kv_request_cycles{phase="steady",quantile="0.999"}`,
		"hcsgc_kv_sessions_retired_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRunScalingTiny drives -report scaling end to end on the smallest
// sweep that passes the scaling gate and reads the -json file back: a
// sweep given no -seed runs on the mode's default.
func TestRunScalingTiny(t *testing.T) {
	path := t.TempDir() + "/scaling-report.json"
	j := quietJob(nil, options{report: "scaling", sweepMutators: []int{1, 2, 4}, scale: 0.02, json: path})
	if err := runMode(t, j); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sweep bench.ScaleSweep
	if err := json.Unmarshal(data, &sweep); err != nil {
		t.Fatalf("scaling report: %v", err)
	}
	if len(sweep.Series) == 0 {
		t.Fatalf("scaling report malformed: %s", data)
	}
	if sweep.Seed != 1 {
		t.Fatalf("report seed = %d, want the mode's default 1", sweep.Seed)
	}
}

// TestRunKVBadConfigs rejects a malformed -configs pair.
func TestRunKVBadConfigs(t *testing.T) {
	j := quietJob(nil, options{report: "kv", runs: 1, scale: 0.01})
	j.configs = []int{3, 4, 16}
	if err := runMode(t, j); err == nil {
		t.Fatal("three config ids must error for -report kv")
	}
}

// TestMisuseFailsLoudly: a command line that names a mode or a flag the
// selected mode would have ignored exits 2 before anything runs, with a
// message naming the offender.
func TestMisuseFailsLoudly(t *testing.T) {
	cases := []struct {
		args string
		want []string // substrings of stderr
	}{
		{"-report nonesuch", append([]string{`"nonesuch"`}, modeNames()...)},
		// Folded into -report kv, not aliased: five modes.
		{"-report tail", []string{`"tail"`, "explain, kv, overload, scaling, chaos)"}},
		// The ISSUE 14 motivation: a flag of another mode used to be
		// accepted, exit 0, and write no file.
		{"-report chaos -json x.json", []string{"-json", "chaos"}},
		// The profiler's sampling knob went with the profiler.
		{"-report explain -locality-shift 4", []string{"-locality-shift"}},
		{"-report kv -overload-factor 3", []string{"-overload-factor", "kv"}},
		{"-report kv -sweep-mutators 1,2", []string{"-sweep-mutators", "kv"}},
		{"-report kv -chaos-out x.txt", []string{"-chaos-out", "kv"}},
		{"-exp fig4 -json x.json", []string{"-json", "-report"}},
		{"-report kv -exp fig4", []string{"-exp", "kv"}},
		{"-report overload -exp kv", []string{"-exp", "overload"}},
		{"-report scaling -exp fig4", []string{"-exp", "scaling"}},
		{"-report scaling -configs 3", []string{"-configs", "scaling"}},
		{"-report overload -configs 3,4", []string{"overload", "exactly 1"}},
		{"-report kv -ablate prefetch", []string{"-ablate", "-report"}},
		// The deleted feedback-loop sweep is a usage error, like an unknown
		// -report, not a run-time failure.
		{"-ablate autotune", []string{`"autotune"`, "prefetch, ecthreshold, gcworkers)"}},
		// An ablation fixes its workload and settings: these used to run
		// fig4, write no CSV and exit 0.
		{"-ablate ecthreshold -exp fig7", []string{"-exp", "-ablate"}},
		{"-ablate ecthreshold -configs 1,2", []string{"-configs", "-ablate"}},
		{"-ablate ecthreshold -csv x.csv", []string{"-csv", "-ablate"}},
		// No report mode writes a CSV: these used to run the report, write
		// no CSV and exit 0.
		{"-report kv -csv x.csv", []string{"-csv", "kv"}},
		{"-report chaos -csv x.csv", []string{"-csv", "chaos"}},
		{"-kv-report", []string{"-kv-report"}}, // the old spellings are gone, not aliased
		{"-report kv -kv-json x.json", []string{"-kv-json"}},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%q: stderr %q does not name %q", tc.args, stderr.String(), want)
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed a report before failing: %q", tc.args, stdout.String())
		}
	}
}

// TestFlagCount holds the line ISSUE 14 drew: the command had 32 flags
// selecting among modes; one -report and one -json replaced thirteen.
func TestFlagCount(t *testing.T) {
	n := 0
	new(options).flagSet().VisitAll(func(*flag.Flag) { n++ })
	if n != 15 {
		t.Errorf("hcsgc-bench defines %d flags, want 15", n)
	}
}

var flagToken = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)

// TestDocumentedFlagsExist is the doc/flag drift guard: every -flag on an
// `hcsgc-bench …` command line in the docs and the CI workflow must be
// one the real FlagSet defines.
func TestDocumentedFlagsExist(t *testing.T) {
	fs := new(options).flagSet()
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "EXPERIMENTS-HOST.md", "DESIGN.md", ".github/workflows/ci.yml"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, cmdline, ok := strings.Cut(line, "hcsgc-bench ")
			if !ok {
				continue
			}
			for _, tok := range strings.Fields(cmdline) {
				if strings.HasPrefix(tok, "#") {
					break // trailing shell comment
				}
				name := strings.Trim(tok, "`'\"()[],.;:")
				if flagToken.MatchString(name) && fs.Lookup(name[1:]) == nil {
					t.Errorf("%s:%d documents `hcsgc-bench %s`, a flag that does not exist", doc, i+1, name)
				}
				if strings.Contains(tok, "`") && !strings.HasPrefix(tok, "`") {
					break // the code span holding the command line closed
				}
			}
		}
	}
}
