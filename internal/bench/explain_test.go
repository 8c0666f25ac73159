package bench

import (
	"strings"
	"testing"

	"hcsgc"
)

// TestExplainPairPassesBothGates drives the explanation A/B on its default
// pair, fig4 config 0 (ZGC) vs 16 (H+CP cc=1 lazy), at the smallest scale
// that collects, then checks validation, the text report and the JSON
// artifact end to end. The pair meets both the locality and the latency
// clauses of the gate and carries both headlines: sampled accesses on each
// side, and mutator relocate barrier hits on the lazy side.
func TestExplainPairPassesBothGates(t *testing.T) {
	ab, err := RunExplainAB("fig4", 1, 0.03, 1, 0, 16, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}

	for side, s := range map[string]*ExplainSide{"base": &ab.Base, "test": &ab.Test} {
		if s.Stats.SampledAccesses == 0 {
			t.Errorf("%s: sampled no accesses", side)
		}
		if s.PrefetchAccuracy <= 0 || s.PrefetchAccuracy > 1 || s.PrefetchCoverage <= 0 {
			t.Errorf("%s: prefetch accuracy %v, coverage %v; want both measured and above 0", side, s.PrefetchAccuracy, s.PrefetchCoverage)
		}
		r := s.Report
		if r.Pauses["stw1"].Count == 0 || r.Pauses["stw1"].Max == 0 {
			t.Errorf("%s: stw1 distribution empty: %+v", side, r.Pauses["stw1"])
		}
		if r.Phases["mark"].Count == 0 {
			t.Errorf("%s: no mark phases recorded", side)
		}
		if len(r.MMU.Windows) != 4 {
			t.Errorf("%s: MMU ladder has %d windows, want 4", side, len(r.MMU.Windows))
		}
	}
	// LAZYRELOCATE's signature: the test side's mutators hit the relocate
	// slow path (they race the GC for EC objects); hits are attributed.
	if ab.Test.Report.Barrier["relocate"].Hits == 0 {
		t.Error("lazy side recorded no relocate barrier hits")
	}

	var txt strings.Builder
	ab.WriteText(&txt)
	for _, want := range []string{
		"explain A/B: fig4", "profiler: 1 burst", "reuse p50 (lines)", "prefetch accuracy", "prefetch coverage",
		"segregation purity", "sampled accesses", "pause stw1", "phase mark", "MMU(1000)",
		"hotmap_record", "relocation shift",
	} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}

	var js strings.Builder
	if err := ab.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"stats"`, `"reports"`, `"pauses"`, `"mmu"`, `"barrier"`, `"alloc_stall"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON artifact missing %q", want)
		}
	}
}

// validExplainAB is the golden fixture with its bounded values moved into
// range, so that it passes Validate.
func validExplainAB() *ExplainAB {
	ab := fixtureExplainAB()
	for _, s := range []*ExplainSide{&ab.Base, &ab.Test} {
		s.Stats.SegPurity, s.PrefetchCoverage = 0.5, 0.25
		for i := range s.Report.MMU.Windows {
			s.Report.MMU.Windows[i].MMU = 0.75
		}
	}
	return ab
}

// TestValidateExplainABRejectsCorruption: each of the gate's eight clauses
// (three locality, one prefetch, four latency) rejects the result it exists for. Each case
// corrupts one field of a valid fixture and is named by a phrase of the
// rejecting clause's message.
func TestValidateExplainABRejectsCorruption(t *testing.T) {
	if err := validExplainAB().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*ExplainAB)
	}{
		{"sampled no accesses", func(c *ExplainAB) { c.Base.Stats.SampledAccesses = 0 }},
		{"reuse histogram is empty", func(c *ExplainAB) {
			c.Test.Stats.ReuseHist = make([]uint64, len(c.Test.Stats.ReuseHist))
			c.Test.Stats.ColdSamples = 0
		}},
		{"purity", func(c *ExplainAB) { c.Test.Stats.SegPurity = 1.5 }},
		{"prefetch coverage", func(c *ExplainAB) { c.Base.PrefetchCoverage = -1 }},
		{"no latency report", func(c *ExplainAB) { c.Test.Report = nil }},
		{"no stw2 pauses", func(c *ExplainAB) { c.Base.Report.Pauses["stw2"] = hcsgc.LatencyDist{} }},
		{"MMU(", func(c *ExplainAB) { c.Test.Report.MMU.Windows[1].MMU = 1.5 }},
		{"no GC cycles", func(c *ExplainAB) { c.Base.Report.Cycles = 0 }},
	} {
		c := validExplainAB()
		tc.corrupt(c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("(*ExplainAB).Validate = %v, want an error saying %q", err, tc.name)
		}
	}
}

// TestValidateExplainABRejectsEmpty: a side with no recorded pauses (the
// workload never collected) must fail validation, not silently produce an
// all-zero report.
func TestValidateExplainABRejectsEmpty(t *testing.T) {
	ab, err := RunExplainAB("fig4", 1, 0.005, 1, 0, 16, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err == nil {
		t.Fatal("scale 0.005 never collects; validation must reject the empty report")
	}
}

// TestRunExplainABBadExperiment propagates workload lookup errors.
func TestRunExplainABBadExperiment(t *testing.T) {
	if _, err := RunExplainAB("nonesuch", 1, 0.03, 1, 0, 16, 4, nil, nil); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
