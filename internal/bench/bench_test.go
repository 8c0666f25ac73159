package bench

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hcsgc"
	"hcsgc/internal/workloads"
)

func TestKnobsForMatchesTable2(t *testing.T) {
	// Spot-check every distinguishing column of Table 2.
	cases := []struct {
		config int
		want   hcsgc.Knobs
	}{
		{0, hcsgc.Knobs{}},
		{1, hcsgc.Knobs{}},
		{2, hcsgc.Knobs{LazyRelocate: true}},
		{3, hcsgc.Knobs{RelocateAllSmallPages: true}},
		{4, hcsgc.Knobs{RelocateAllSmallPages: true, LazyRelocate: true}},
		{5, hcsgc.Knobs{Hotness: true}},
		{6, hcsgc.Knobs{Hotness: true, ColdConfidence: 0.5}},
		{7, hcsgc.Knobs{Hotness: true, ColdConfidence: 1.0}},
		{8, hcsgc.Knobs{Hotness: true, LazyRelocate: true}},
		{9, hcsgc.Knobs{Hotness: true, ColdConfidence: 0.5, LazyRelocate: true}},
		{10, hcsgc.Knobs{Hotness: true, ColdConfidence: 1.0, LazyRelocate: true}},
		{11, hcsgc.Knobs{Hotness: true, ColdPage: true}},
		{12, hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 0.5}},
		{13, hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0}},
		{14, hcsgc.Knobs{Hotness: true, ColdPage: true, LazyRelocate: true}},
		{15, hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 0.5, LazyRelocate: true}},
		{16, hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true}},
		{17, hcsgc.Knobs{Hotness: true, ColdPage: true, RelocateAllSmallPages: true}},
		{18, hcsgc.Knobs{Hotness: true, ColdPage: true, RelocateAllSmallPages: true, LazyRelocate: true}},
	}
	for _, tc := range cases {
		if got := KnobsFor(tc.config); got != tc.want {
			t.Errorf("config %d: knobs = %+v, want %+v", tc.config, got, tc.want)
		}
	}
}

func TestAllConfigsValid(t *testing.T) {
	for _, c := range AllConfigs() {
		if err := KnobsFor(c).Validate(); err != nil {
			t.Errorf("config %d invalid: %v", c, err)
		}
	}
	if len(AllConfigs()) != 19 {
		t.Fatal("Table 2 has 19 configs")
	}
}

func TestKnobsForPanicsOutOfRange(t *testing.T) {
	for _, c := range []int{-1, 19} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KnobsFor(%d) did not panic", c)
				}
			}()
			KnobsFor(c)
		}()
	}
}

func TestRunSmallExperiment(t *testing.T) {
	spec := Spec{
		ID:      "fig4",
		Title:   "test",
		Runs:    3,
		Scale:   0.01,
		Configs: []int{0, 4},
		Seed:    7,
	}
	res, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerConfig) != 2 {
		t.Fatalf("per-config results = %d", len(res.PerConfig))
	}
	base := res.Baseline()
	if base == nil || base.Config != 0 {
		t.Fatal("baseline missing")
	}
	if base.TimeVsBaseline != 0 {
		t.Fatal("baseline delta must be 0")
	}
	for _, cr := range res.PerConfig {
		if len(cr.Times) != 3 {
			t.Fatalf("config %d: %d runs", cr.Config, len(cr.Times))
		}
		if cr.Boot.Mean <= 0 {
			t.Fatalf("config %d: non-positive mean", cr.Config)
		}
	}
	if len(res.HeapSeries) == 0 {
		t.Fatal("heap series missing")
	}
}

// TestRunInterleavesConfigs: the figure sweep runs run index r on every
// config before it starts r+1, read from the order of its progress lines.
func TestRunInterleavesConfigs(t *testing.T) {
	line := regexp.MustCompile(`config (\d+) run (\d+)/`)
	var got []string
	progress := func(format string, args ...any) {
		if m := line.FindStringSubmatch(fmt.Sprintf(format, args...)); m != nil {
			got = append(got, m[1]+"/"+m[2])
		}
	}
	if _, err := Run(Spec{ID: "fig4", Runs: 2, Scale: 0.005, Configs: []int{0, 4}, Seed: 1}, progress); err != nil {
		t.Fatal(err)
	}
	// config/run, run counted from 1.
	if want := []string{"0/1", "4/1", "0/2", "4/2"}; !slices.Equal(got, want) {
		t.Fatalf("runs went config/run %v, want %v", got, want)
	}
}

// TestRunSharesGraphs: the figure sweep runs every config of a run index
// on one seed back to back, so a 2-config, 2-run fig7 sweep generates two
// graphs (one per seed), not one per config and run.
func TestRunSharesGraphs(t *testing.T) {
	built := workloads.GraphsBuilt()
	if _, err := Run(Spec{ID: "fig7", Runs: 2, Scale: 0.01, Configs: []int{0, 16}, Seed: 91}, nil); err != nil {
		t.Fatal(err)
	}
	if n := workloads.GraphsBuilt() - built; n != 2 {
		t.Fatalf("a 2-run fig7 sweep built %d graphs, want 2", n)
	}
}

// TestRunSidesCrossChecksChecksums: a side whose program result differs
// from an earlier side's at the same run index fails the sweep, while a
// side at another offered load serves another schedule and is compared
// with nothing.
func TestRunSidesCrossChecksChecksums(t *testing.T) {
	w := workloads.Workload{Name: "fake", Run: func(rc workloads.RunConfig) (workloads.Result, error) {
		return workloads.Result{Check: uint64(rc.Seed) + uint64(rc.LoadFactor) + uint64(rc.GCWorkers)}, nil
	}}
	sides := configSides(0, 4)
	if _, err := runSides("fake", w, sides, 2, 1, 1, nil, nil, nil); err != nil {
		t.Fatalf("agreeing sides: %v", err)
	}
	sides[1].rc.LoadFactor = 2
	if _, err := runSides("fake", w, sides, 2, 1, 1, nil, nil, nil); err != nil {
		t.Fatalf("a side at another offered load was cross-checked: %v", err)
	}
	sides[1].rc.LoadFactor, sides[1].rc.GCWorkers = 0, 2
	if _, err := runSides("fake", w, sides, 2, 1, 1, nil, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "config 4 run 0 checksum 3 != expected 1") {
		t.Fatalf("a changed program result passed: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run(Spec{ID: "nope"}, nil); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestSpecsCoverAllFigures(t *testing.T) {
	specs := Specs()
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "kv"} {
		s, ok := specs[id]
		if !ok {
			t.Errorf("missing spec %s", id)
			continue
		}
		if s.Runs <= 0 || s.Title == "" {
			t.Errorf("spec %s incomplete: %+v", id, s)
		}
	}
	if len(ExperimentIDs()) != 14 {
		t.Error("3 tables + 10 figures + kv expected")
	}
}

func TestWriteReport(t *testing.T) {
	spec := Spec{ID: "fig4", Title: "t", Runs: 2, Scale: 0.01, Configs: []int{0, 3}, Seed: 1}
	res, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteReport(&buf, &res)
	out := buf.String()
	for _, want := range []string{"FIG4", "0 (ZGC)", "vsZGC", "gc-cycles", "heap usage"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	WriteCSV(&csv, &res)
	if lines := strings.Count(csv.String(), "\n"); lines != 3 {
		t.Errorf("CSV lines = %d, want header + 2 configs", lines)
	}
}

func TestWriteTables(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf)
	if !strings.Contains(buf.String(), "2 MB") || !strings.Contains(buf.String(), "256 KB") {
		t.Errorf("table1 wrong:\n%s", buf.String())
	}
	buf.Reset()
	WriteTable2(&buf)
	out := buf.String()
	if !strings.Contains(out, "ColdConfidence") || !strings.Contains(out, "LazyRelocate") {
		t.Errorf("table2 wrong:\n%s", out)
	}
	buf.Reset()
	WriteTable3(&buf, 0.02)
	if !strings.Contains(buf.String(), "uk(CC)") || !strings.Contains(buf.String(), "900002") {
		t.Errorf("table3 wrong:\n%s", buf.String())
	}
}

// TestTable3RowsAreWorkloadInputs: every Table 3 row prints the graph and
// heap its JGraphT workload runs at that scale, not a second sizing. At the
// default scale fig9 runs uk(MC) density-preserved (14,955 edges, where
// proportional scaling gives 59,823) and every input gets the 64 MB floor.
func TestTable3RowsAreWorkloadInputs(t *testing.T) {
	var buf bytes.Buffer
	WriteTable3(&buf, 0)
	lines := strings.Split(buf.String(), "\n")
	if len(lines) < 6 || !strings.Contains(lines[0], "(scale 0.25)") {
		t.Fatalf("table3 at the default scale:\n%s", buf.String())
	}
	row := 2
	for _, dataset := range []string{"uk", "enwiki"} {
		for _, mc := range []bool{false, true} {
			in, err := workloads.JGraphTInput(dataset, mc, workloads.JGraphTScale)
			if err != nil {
				t.Fatal(err)
			}
			var name string
			var nodes, edges, genNodes, genEdges, heapMB int
			if _, err := fmt.Sscan(lines[row], &name, &nodes, &edges, &genNodes, &genEdges, &heapMB); err != nil {
				t.Fatalf("row %q: %v", lines[row], err)
			}
			row++
			want := [6]any{in.Preset.Name, in.Preset.Nodes, in.Preset.Edges, in.Params.Nodes, in.Params.Edges, int(in.HeapBytes >> 20)}
			if got := [6]any{name, nodes, edges, genNodes, genEdges, heapMB}; got != want {
				t.Errorf("%s row = %v, its workload runs %v", in.Preset.Name, got, want)
			}
			if heapMB != 64 {
				t.Errorf("%s heap = %d MB, want the 64 MB floor at scale 0.25", name, heapMB)
			}
			if name == "uk(MC)" && genEdges != 14955 {
				t.Errorf("uk(MC) prints %d edges, fig9 runs 14955", genEdges)
			}
		}
	}
}

func TestScoreMetricsReport(t *testing.T) {
	spec := Spec{ID: "fig13", Title: "t", Runs: 2, Scale: 0.01, Configs: []int{0, 5}, Seed: 1,
		ScoreMetrics: []string{"max-jOPS", "critical-jOPS"}}
	res, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteReport(&buf, &res)
	if !strings.Contains(buf.String(), "max-jOPS") {
		t.Errorf("score report missing metric:\n%s", buf.String())
	}
	for _, cr := range res.PerConfig {
		if cr.ScoreBoots["max-jOPS"].Mean <= 0 {
			t.Errorf("config %d: max-jOPS bootstrap missing", cr.Config)
		}
	}
}
