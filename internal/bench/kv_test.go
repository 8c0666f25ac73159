package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunKVAB(t *testing.T) {
	ab, err := RunKVAB(2, 0.01, 1, 3, 4, nil, nil)
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
	ab, err := RunKVAB(1, 0.01, 1, 3, 4, nil, nil)
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

// ValidateKVAB must reject sides whose per-phase request counts diverge
// (both sides serve the same open-loop schedule, so that can only be a
// harness bug).
func TestKVABValidateRejectsCorruption(t *testing.T) {
	ab, err := RunKVAB(1, 0.01, 1, 3, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ab.Test.Report.Phases[1].Dist.Count++
	if ab.Validate() == nil {
		t.Fatal("ValidateKVAB accepted mismatched per-phase request counts")
	}
}
