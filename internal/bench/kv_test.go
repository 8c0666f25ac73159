package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"hcsgc/internal/kvstore"
	"hcsgc/internal/workloads"
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

// TestRunKVABSharesSchedules: the A/B runs both sides of a run index
// back to back, so a 2-run comparison generates two KV schedules (one per
// seed), not one per side and run.
func TestRunKVABSharesSchedules(t *testing.T) {
	built := workloads.KVSchedulesBuilt()
	if _, err := RunKVAB(2, 0.01, 91, 3, 4, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := workloads.KVSchedulesBuilt() - built; n != 2 {
		t.Fatalf("a 2-run KV A/B built %d schedules, want 2", n)
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

// sharedKV is one full-scale KV A/B, shared by the tests that need SLO
// violations to read: the default SLO is only violated at scale 1, where
// the fixed 18MB serving heap sees the full churn.
var sharedKV = sync.OnceValues(func() (*KVAB, error) {
	return RunKVAB(1, 1, 1, 3, 4, nil, nil)
})

// linked returns the first exemplar of a side's tail that links a cycle
// record.
func linked(t *testing.T, tail *kvstore.TailReport) *kvstore.Exemplar {
	t.Helper()
	for i := range tail.TopK {
		if tail.TopK[i].CycleIndex >= 0 {
			return &tail.TopK[i]
		}
	}
	t.Fatalf("no exemplar of %d links a cycle record", len(tail.TopK))
	return nil
}

// TestKVABValidateRejectsCorruption gives every clause of (*KVAB).Validate
// that compares two parts of the report an input it rejects: per-phase
// request counts that diverge between the sides (both serve the same
// open-loop schedule), violations mostly left without a cause, and an
// exemplar whose cycle link does not name the one record of its cycle.
func TestKVABValidateRejectsCorruption(t *testing.T) {
	ab, err := sharedKV()
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := ab.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string // a phrase of the rejecting clause's message
		corrupt func(*KVAB)
	}{
		{"request counts differ", func(ab *KVAB) { ab.Test.Report.Phases[1].Dist.Count++ }},
		{"attributed only 50.0% of 2 violations", func(ab *KVAB) {
			for i := range ab.Test.Tail.ByCause {
				ab.Test.Tail.ByCause[i].Count = 0
			}
			ab.Test.Tail.Violations, ab.Test.Tail.ByCause[0].Count = 2, 2
			ab.Test.Tail.AttributedFraction = 0.5
		}},
		{"out of range", func(ab *KVAB) { linked(t, &ab.Base.Tail).CycleIndex = len(ab.Base.Tail.Cycles) }},
		{"links the record of cycle", func(ab *KVAB) { linked(t, &ab.Test.Tail).Cycle++ }},
		{"appears twice in cycles", func(ab *KVAB) {
			ab.Base.Tail.Cycles = append(ab.Base.Tail.Cycles, ab.Base.Tail.Cycles[0])
		}},
	} {
		// Each row corrupts a fresh copy of the one report.
		var c KVAB
		if err := json.Unmarshal(doc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: uncorrupted report rejected: %v", tc.name, err)
		}
		tc.corrupt(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("(*KVAB).Validate = %v, want an error saying %q", err, tc.name)
		}
	}
}

// TestKVABExplainsItsOwnTail: the attribution in a KV report is of the
// requests the report counts, and it names the GC mechanism: stall-driven
// causes (alloc-stall + queued-behind-stall), not STW pauses, dominate the
// violations on both sides: the serving tail is made of stall convoys.
func TestKVABExplainsItsOwnTail(t *testing.T) {
	ab, err := sharedKV()
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}
	if ab.SLOThresholdCycles != kvstore.SLOCycles {
		t.Fatalf("slo=%d, want the ledger's %d", ab.SLOThresholdCycles, kvstore.SLOCycles)
	}
	for _, s := range []struct {
		name string
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		var served, slowest uint64
		for _, p := range s.side.Report.Phases {
			served += p.Dist.Count
			slowest = max(slowest, p.Dist.Max)
		}
		if s.side.Tail.Requests != served || served == 0 {
			t.Fatalf("%s tail counts %d requests, serving report %d", s.name, s.side.Tail.Requests, served)
		}
		if s.side.Tail.Violations == 0 {
			t.Fatalf("%s side: no SLO violations at full scale, nothing was attributed", s.name)
		}
		if got := s.side.Tail.TopK[0].LatencyCycles; got != slowest {
			t.Errorf("%s slowest exemplar %d cycles, serving report's max %d", s.name, got, slowest)
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
		back.Test.Tail.Requests != ab.Test.Tail.Requests ||
		len(back.Test.Tail.Cycles) != len(ab.Test.Tail.Cycles) {
		t.Fatal("tail attribution did not round-trip through the JSON report")
	}
}

// TestTailViolationsAreOverSLOSuccesses: one SLO judges both goodput and
// violation, so on every side the successes over the SLO are exactly the
// attributed violations; and every exemplar links the one record of the
// cycle it names.
func TestTailViolationsAreOverSLOSuccesses(t *testing.T) {
	cfgs := []int{3, 4}
	sides, ledgers, err := runKVSides("kv", configSides(cfgs...), 1, 1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sides {
		s.Config = cfgs[i]
		o := ledgers[i].Outcomes()
		if v := s.Tail.Violations; v == 0 || o.Successes-o.Goodput != v {
			t.Errorf("cfg %d: successes %d - goodput %d != %d violations (want > 0)",
				s.Config, o.Successes, o.Goodput, v)
		}
		for _, ex := range s.Tail.TopK {
			if ex.CycleIndex < 0 || s.Tail.Cycles[ex.CycleIndex].Seq != ex.Cycle {
				t.Errorf("cfg %d: exemplar seq %d names cycle %d, links cycles[%d]",
					s.Config, ex.Seq, ex.Cycle, ex.CycleIndex)
			}
		}
	}
}
