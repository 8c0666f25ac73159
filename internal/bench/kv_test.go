package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunKVAB(t *testing.T) {
	ab, err := RunKVAB(2, 0.01, 1, 3, 4, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}
	if ab.Base.Config != 3 || ab.Test.Config != 4 {
		t.Fatalf("configs = %d/%d, want 3/4", ab.Base.Config, ab.Test.Config)
	}
	// Two runs merged: every side's total request count must be exactly
	// twice one run's (the schedule is fixed per seed... but seeds differ
	// per run; the total is still the sum of both runs' served counts,
	// and both sides must agree).
	var baseN, testN uint64
	for i := range ab.Base.Report.Phases {
		baseN += ab.Base.Report.Phases[i].Dist.Count
		testN += ab.Test.Report.Phases[i].Dist.Count
	}
	if baseN == 0 || baseN != testN {
		t.Fatalf("request totals base %d, test %d", baseN, testN)
	}

	var text bytes.Buffer
	ab.WriteText(&text)
	for _, want := range []string{
		"KV serving A/B", "SLO curve, steady phase", "SLO curve, burst phase",
		"SLO curve, shifted phase", "tail headline", "hit rate",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
}

// TestKVJSONRoundTrip pins the artifact shape: the JSON the CI job
// uploads must decode back into a KVAB that still passes validation with
// the distributions intact.
func TestKVJSONRoundTrip(t *testing.T) {
	ab, err := RunKVAB(1, 0.01, 1, 3, 4, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rt KVAB
	if err := json.Unmarshal(buf.Bytes(), &rt); err != nil {
		t.Fatalf("decode artifact: %v", err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	if rt.Base.Knobs != ab.Base.Knobs || rt.Test.Knobs != ab.Test.Knobs {
		t.Fatal("knob strings lost in round trip")
	}
	for i := range ab.Base.Report.Phases {
		a, b := ab.Base.Report.Phases[i], rt.Base.Report.Phases[i]
		if a.Dist != b.Dist {
			t.Fatalf("phase %q dist changed in round trip: %+v vs %+v", a.Phase, a.Dist, b.Dist)
		}
		if len(a.SLO) != len(b.SLO) {
			t.Fatalf("phase %q SLO ladder length changed", a.Phase)
		}
		for j := range a.SLO {
			if a.SLO[j] != b.SLO[j] {
				t.Fatalf("phase %q SLO point %d changed", a.Phase, j)
			}
		}
	}
}

// TestKVABValidateRejectsCorruption gives every clause of (*KVAB).Validate
// that compares two parts of the report an input it rejects: per-phase
// request counts that diverge between the sides (both serve the same
// open-loop schedule), an attributor that observed other requests than the
// serving report counted, and violations mostly left without a cause.
func TestKVABValidateRejectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string // a phrase of the rejecting clause's message
		corrupt func(*KVAB)
	}{
		{"request counts differ", func(ab *KVAB) {
			ab.Test.Report.Phases[1].Dist.Count++
			ab.Test.Tail.Requests++
		}},
		{"attributor observed", func(ab *KVAB) { ab.Base.Tail.Requests++ }},
		{"attributed only 50.0% of 2 violations", func(ab *KVAB) {
			ab.Test.Tail.Violations, ab.Test.Tail.ByCause[0].Count = 2, 2
			ab.Test.Tail.AttributedFraction = 0.5
		}},
	} {
		ab, err := RunKVAB(1, 0.01, 1, 3, 4, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ab.Validate(); err != nil {
			t.Fatalf("%s: uncorrupted report rejected: %v", tc.name, err)
		}
		tc.corrupt(ab)
		if err := ab.Validate(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("(*KVAB).Validate = %v, want an error saying %q", err, tc.name)
		}
	}
}

// TestKVABExplainsItsOwnTail: the attribution in a KV report is of the
// requests the report counts. At tiny scale the GC never disrupts serving,
// so a micro SLO yields service-caused violations, which carry no cycle by
// design: the 90% clause of the gate is the full-scale half's job.
func TestKVABExplainsItsOwnTail(t *testing.T) {
	ab, err := RunKVAB(2, 0.01, 1, 3, 4, 500, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Runs != 2 || ab.SLOThresholdCycles != 500 {
		t.Fatalf("runs=%d slo=%d, want 2/500", ab.Runs, ab.SLOThresholdCycles)
	}
	for _, s := range []struct {
		name string
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		if err := s.side.Tail.Validate(); err != nil {
			t.Fatalf("%s tail report invalid: %v", s.name, err)
		}
		if err := s.side.Report.Validate(); err != nil {
			t.Fatalf("%s serving report invalid: %v", s.name, err)
		}
		var served, slowest uint64
		for _, p := range s.side.Report.Phases {
			served += p.Dist.Count
			slowest = max(slowest, p.Dist.Max)
		}
		if s.side.Tail.Requests != served || served == 0 {
			t.Fatalf("%s attributor observed %d requests, serving report counted %d",
				s.name, s.side.Tail.Requests, served)
		}
		if s.side.Tail.Violations == 0 {
			t.Fatalf("%s side saw no violations against a 500-cycle SLO", s.name)
		}
		if got := s.side.Tail.TopK[0].LatencyCycles; got != slowest {
			t.Errorf("%s slowest exemplar %d cycles, serving report's max %d", s.name, got, slowest)
		}
	}

	var text bytes.Buffer
	ab.WriteText(&text)
	for _, want := range []string{
		"by cause", "attributed to a concrete cause+cycle", "slowest: seq ",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}

	var buf bytes.Buffer
	if err := ab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back KVAB
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Base.Tail.Violations != ab.Base.Tail.Violations ||
		back.Test.Tail.Requests != ab.Test.Tail.Requests {
		t.Fatal("tail attribution did not round-trip through the JSON report")
	}

	// Tail violations at the default SLO only exist at default scale (the
	// fixed 18MB serving heap needs the full churn to pressure the GC), so
	// one full-scale pair is what holds the gate's 90% clause for real.
	if testing.Short() {
		return
	}
	ab, err = RunKVAB(1, 1, 1, 3, 4, 0, nil, nil)
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
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		if s.side.Tail.Violations == 0 {
			t.Errorf("%s side: no SLO violations at full scale, nothing was attributed", s.name)
		}
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
