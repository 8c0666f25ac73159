package bench

import (
	"strings"
	"testing"

	"hcsgc"
)

// TestExplainPairPassesBothGates drives the explanation A/B on its default
// pair, fig4 config 0 (ZGC) vs 16 (H+CP cc=1 lazy), then checks
// validation, the text report and the JSON artifact end to end. The pair
// meets both the cache-model and the latency clauses of the gate and
// carries both headlines: mutator and GC-thread accesses on each side, and
// mutator relocate barrier hits on the lazy side. Scale 0.05 gives a run
// several cycles with evacuation sets while its mutator still runs; at
// 0.03 a run's only evacuated page can come in its last cycle, and whether
// the mutator touches it before the run ends is a race on the host.
func TestExplainPairPassesBothGates(t *testing.T) {
	ab, err := RunExplainAB("fig4", 1, 0.05, 1, 0, 16, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}

	for side, s := range map[string]*ExplainSide{"base": &ab.Base, "test": &ab.Test} {
		if s.Owners.Mutators.Loads == 0 || s.Owners.GC.Loads == 0 {
			t.Errorf("%s: mutator loads %d, GC-thread loads %d; want both above 0", side, s.Owners.Mutators.Loads, s.Owners.GC.Loads)
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
		"explain A/B: fig4", "prefetch accuracy", "prefetch coverage", "segregation purity",
		"cache model by owner", "base mutators", "test GC threads", "delta total", "pause stw1", "phase mark", "MMU(1000)",
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
	for _, want := range []string{`"owners"`, `"seg_purity"`, `"pauses"`, `"mmu"`, `"barrier"`, `"alloc_stall"`} {
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
		s.SegPurity, s.PrefetchCoverage = 0.5, 0.25
		t := ownerTotal(s.Owners)
		s.Loads, s.L1Misses, s.LLCMisses = t.Loads, t.L1Misses, t.LLCMisses
		for i := range s.Report.MMU.Windows {
			s.Report.MMU.Windows[i].MMU = 0.75
		}
	}
	return ab
}

// TestValidateExplainABRejectsCorruption: each of the gate's seven clauses
// (owner rows, purity, prefetch, four latency) rejects the result it exists
// for. Each case corrupts one field of a valid fixture and is named by a
// phrase of the rejecting clause's message.
func TestValidateExplainABRejectsCorruption(t *testing.T) {
	if err := validExplainAB().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*ExplainAB)
	}{
		{"owner rows sum", func(c *ExplainAB) { c.Base.Owners.GC.LLCMisses++ }},
		{"purity", func(c *ExplainAB) { c.Test.SegPurity = 1.5 }},
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
	ab, err := RunExplainAB("fig4", 1, 0.005, 1, 0, 16, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err == nil {
		t.Fatal("scale 0.005 never collects; validation must reject the empty report")
	}
}

// TestRunExplainABBadExperiment propagates workload lookup errors.
func TestRunExplainABBadExperiment(t *testing.T) {
	if _, err := RunExplainAB("nonesuch", 1, 0.03, 1, 0, 16, nil, nil); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
