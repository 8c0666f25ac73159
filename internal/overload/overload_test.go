package overload

import (
	"testing"

	"hcsgc/internal/telemetry"
)

func TestNilStatsIsInert(t *testing.T) {
	var st *Stats
	st.RecordShed()
	st.RecordDeadlineExceeded()
	st.RecordOOMFailure()
	st.RecordFailure()
	st.RecordSuccess(10, true)
	st.AddServeSpan(1)
	st.AddServeAllocBytes(1)
	st.Merge(NewStats())
	st.BindTelemetry(telemetry.NewRegistry())
	if st.ServeAllocBytes() != 0 {
		t.Fatal("nil stats reported bytes")
	}
	if rep := st.Report(5); rep.Successes != 0 || rep.SLOThresholdCycles != 5 {
		t.Fatalf("nil stats report: %+v", rep)
	}
}

// TestPolicyConstants: the goodput bound sits inside the deadline (a
// request that meets its SLO never expires), and a request may absorb at
// least one allocation stall before failing fast.
func TestPolicyConstants(t *testing.T) {
	if GoodputSLOCycles >= DeadlineCycles || MaxStallsPerRequest < 1 {
		t.Fatal("overload constants out of order")
	}
}

// TestStatsMergeReportValidate: outcome accounting survives a cross-thread
// merge and the report invariants hold.
func TestStatsMergeReportValidate(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.RecordSuccess(100, true)
	a.RecordSuccess(5_000_000, false)
	a.RecordShed()
	a.RecordFailure()
	a.AddServeSpan(1_000_000)
	a.AddServeAllocBytes(4096)
	b.RecordSuccess(200, true)
	b.RecordDeadlineExceeded()
	b.RecordFailure()
	b.RecordOOMFailure()
	b.RecordFailure()
	a.Merge(b)

	rep := a.Report(1_000_000)
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Successes != 3 || rep.Goodput != 2 || rep.Failures != 3 {
		t.Fatalf("merged counts: %+v", rep)
	}
	if rep.Badput != (rep.Successes-rep.Goodput)+rep.Failures {
		t.Fatalf("badput %d does not partition", rep.Badput)
	}
	if rep.Sheds != 1 || rep.DeadlineExceeded != 1 || rep.OOMFailures != 1 {
		t.Fatalf("failure causes lost in merge: %+v", rep)
	}
	if rep.ShedRate != 1.0/6 {
		t.Fatalf("shed rate = %v, want 1/6 (one shed of six requests)", rep.ShedRate)
	}
	if rep.GoodputPerMcycle != 2 {
		t.Fatalf("goodput/Mcycle = %v, want 2", rep.GoodputPerMcycle)
	}
	if a.ServeAllocBytes() != 4096 {
		t.Fatalf("serve alloc bytes = %d", a.ServeAllocBytes())
	}
	if rep.Success.Count != rep.Successes {
		t.Fatalf("histogram count %d != successes %d", rep.Success.Count, rep.Successes)
	}

	// Validate rejects a corrupted partition.
	bad := rep
	bad.Badput++
	if bad.Validate() == nil {
		t.Fatal("Validate accepted a broken badput partition")
	}
	bad = rep
	bad.Sheds++
	if bad.Validate() == nil {
		t.Fatal("Validate accepted failure causes that do not partition failures")
	}
}

// TestTelemetryBinding: the accumulator's family registers cleanly and the
// live handles count.
func TestTelemetryBinding(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := NewStats()
	st.BindTelemetry(reg)
	st.RecordSuccess(10, true)
	st.RecordShed()
	st.RecordFailure()
	if rep := st.Report(100); rep.Successes != 1 || rep.Failures != 1 || rep.Sheds != 1 {
		t.Fatalf("recording broke after binding: %+v", rep)
	}
}
