package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunTailABTiny: the tail A/B harness at tiny scale — checksum
// cross-check, request accounting, report/JSON rendering. At this scale
// the GC never disrupts serving, so a micro SLO yields service-caused
// violations; the 90% attribution gate is TestTailABFullAttribution's
// job at real scale.
func TestRunTailABTiny(t *testing.T) {
	ab, err := RunTailAB(2, 0.01, 1, 3, 4, 500, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Runs != 2 || ab.SLOThresholdCycles != 500 {
		t.Fatalf("runs=%d slo=%d, want 2/500", ab.Runs, ab.SLOThresholdCycles)
	}
	for _, s := range []struct {
		name string
		side *TailSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		if err := s.side.Tail.Validate(); err != nil {
			t.Fatalf("%s tail report invalid: %v", s.name, err)
		}
		if err := s.side.Report.Validate(); err != nil {
			t.Fatalf("%s serving report invalid: %v", s.name, err)
		}
		var served uint64
		for _, p := range s.side.Report.Phases {
			served += p.Dist.Count
		}
		if s.side.Tail.Requests != served || served == 0 {
			t.Fatalf("%s attributor observed %d requests, serving report counted %d",
				s.name, s.side.Tail.Requests, served)
		}
		if s.side.Tail.Violations == 0 {
			t.Fatalf("%s side saw no violations against a 500-cycle SLO", s.name)
		}
	}

	var text bytes.Buffer
	ab.WriteText(&text)
	out := text.String()
	for _, want := range []string{
		"KV tail attribution A/B",
		"p99 violations by cause:",
		"attributed to a concrete cause+cycle",
		"slowest exemplars",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}

	var buf bytes.Buffer
	if err := ab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back TailAB
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Base.Tail.Violations != ab.Base.Tail.Violations ||
		back.Test.Tail.Requests != ab.Test.Tail.Requests {
		t.Fatal("tail JSON artifact did not round-trip")
	}
}

// TestTailABFullAttribution runs one full-scale A/B pair and holds it to
// the acceptance gate: at least 90% of SLO-violating requests on each
// side carry a concrete cause and responsible cycle id. Tail violations
// only exist at default scale (the fixed 18MB serving heap needs the
// full churn to pressure the GC), so this is the one test that exercises
// ValidateTailAB's gate for real.
func TestTailABFullAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale KV run in -short mode")
	}
	ab, err := RunTailAB(1, 1, 1, 3, 4, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}
	// The PR 6 finding must survive attribution: stall-driven causes
	// (alloc-stall + queued-behind-stall), not STW pauses, dominate the
	// violation population on both sides.
	for _, s := range []struct {
		name string
		side *TailSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		counts := map[string]uint64{}
		for _, c := range s.side.Tail.ByCause {
			counts[c.Cause] = c.Count
		}
		stallDriven := counts["alloc-stall"] + counts["queued-behind-stall"]
		if stallDriven <= counts["stw-pause"] {
			t.Errorf("%s side: stall-driven causes %d not dominant over stw-pause %d",
				s.name, stallDriven, counts["stw-pause"])
		}
	}
}
