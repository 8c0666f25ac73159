package bench

import (
	"strings"
	"testing"
)

// TestRunLatencyAB drives the A/B harness on the smallest fig4 that
// actually collects, then checks validation, the text report and the JSON
// artifact end to end.
func TestRunLatencyAB(t *testing.T) {
	ab, err := RunLatencyAB("fig4", 1, 0.03, 1, 3, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}

	for side, s := range map[string]*LatencySide{"base": &ab.Base, "test": &ab.Test} {
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
		"latency A/B: fig4", "pause stw1", "phase mark", "MMU(1000)",
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
	for _, want := range []string{`"pauses"`, `"mmu"`, `"barrier"`, `"alloc_stall"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON artifact missing %q", want)
		}
	}
}

// TestValidateLatencyABRejectsEmpty: a side with no recorded pauses (the
// workload never collected) must fail validation, not silently produce an
// all-zero report.
func TestValidateLatencyABRejectsEmpty(t *testing.T) {
	ab, err := RunLatencyAB("fig4", 1, 0.005, 1, 0, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err == nil {
		t.Fatal("scale 0.005 never collects; validation must reject the empty report")
	}
}

// TestRunLatencyABBadExperiment propagates workload lookup errors.
func TestRunLatencyABBadExperiment(t *testing.T) {
	if _, err := RunLatencyAB("nonesuch", 1, 0.03, 1, 3, 4, nil, nil); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
