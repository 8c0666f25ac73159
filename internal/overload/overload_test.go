package overload

import (
	"errors"
	"testing"

	"hcsgc/internal/faultinject"
	"hcsgc/internal/signals"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

func TestNilControllerAndStatsAreInert(t *testing.T) {
	var ctrl *Controller
	if ctrl.State() != StateNormal || ctrl.Poll() != StateNormal {
		t.Fatal("nil controller not in Normal")
	}
	if err := ctrl.Admit(PriorityBulk, 42); err != nil {
		t.Fatalf("nil controller shed a request: %v", err)
	}
	if rep := ctrl.Report(); rep.State != "normal" || rep.Admitted != 0 {
		t.Fatalf("nil controller report: %+v", rep)
	}

	var st *Stats
	st.RecordDeadlineExceeded()
	st.RecordOOMFailure()
	st.RecordRetry()
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

// TestControllerStallBurstEscalation drives the state machine through the
// live stall-delta path: one stall since the last poll reaches Brownout, a
// burst reaches Shed, and calm polls unwind one level per ExitPolls.
func TestControllerStallBurstEscalation(t *testing.T) {
	var stalls uint64
	st := NewStats()
	ctrl := NewController(Policy{Seed: 1}, nil, Hooks{
		HeapUsedPct: func() float64 { return 50 },
		Stalls:      func() uint64 { return stalls },
	}, nil, st)

	if got := ctrl.Poll(); got != StateNormal {
		t.Fatalf("initial poll: %v", got)
	}
	stalls++
	if got := ctrl.Poll(); got != StateBrownout {
		t.Fatalf("delta 1: %v, want brownout", got)
	}
	stalls += shedStallBurst
	if got := ctrl.Poll(); got != StateShed {
		t.Fatalf("stall burst: %v, want shed", got)
	}

	// Hysteresis: ExitPolls calm polls per downward step, one level at a
	// time — never shed-to-normal in one hop.
	exit := exitPolls
	for i := 0; i < exit-1; i++ {
		if got := ctrl.Poll(); got != StateShed {
			t.Fatalf("calm poll %d left shed early: %v", i+1, got)
		}
	}
	if got := ctrl.Poll(); got != StateBrownout {
		t.Fatalf("after %d calm polls: %v, want brownout", exit, got)
	}
	for i := 0; i < exit-1; i++ {
		if got := ctrl.Poll(); got != StateBrownout {
			t.Fatalf("calm poll %d left brownout early: %v", i+1, got)
		}
	}
	if got := ctrl.Poll(); got != StateNormal {
		t.Fatalf("did not settle back to normal: %v", ctrl.State())
	}
	if rep := ctrl.Report(); rep.Transitions != 4 {
		t.Fatalf("transitions = %d, want 4 (N→B→S→B→N)", rep.Transitions)
	}
}

// TestControllerOccupancyBackstop checks the live-occupancy thresholds and
// the emergency-headroom engage/release lever.
func TestControllerOccupancyBackstop(t *testing.T) {
	occ := 50.0
	var headroom []uint64
	ctrl := NewController(Policy{Seed: 1}, nil, Hooks{
		HeapUsedPct: func() float64 { return occ },
		SetHeadroom: func(b uint64) { headroom = append(headroom, b) },
	}, nil, nil)

	if got := ctrl.Poll(); got != StateNormal {
		t.Fatalf("occ 50: %v", got)
	}
	occ = brownoutHeapPct + 1
	if got := ctrl.Poll(); got != StateBrownout {
		t.Fatalf("occ %v: %v, want brownout", occ, got)
	}
	if len(headroom) != 1 || headroom[0] != emergencyHeadroomBytes {
		t.Fatalf("headroom calls after brownout: %v", headroom)
	}
	occ = shedHeapPct + 1
	if got := ctrl.Poll(); got != StateShed {
		t.Fatalf("occ %v: %v, want shed (escalation is immediate)", occ, got)
	}
	// Pressure vanishes: headroom releases on the next poll even though
	// the state unwinds slowly.
	occ = 50
	ctrl.Poll()
	if len(headroom) != 2 || headroom[1] != 0 {
		t.Fatalf("headroom not released when calm: %v", headroom)
	}
}

// TestControllerPlaneFlagsAndEmergency wires a real signal plane: a
// heap_pressure cycle record plus a live stall escalates straight to Shed
// and forces at most one emergency GC per observed cycle record.
func TestControllerPlaneFlagsAndEmergency(t *testing.T) {
	plane := signals.New(signals.Config{})
	var stalls uint64
	var emergencies int
	ctrl := NewController(Policy{Seed: 1}, plane, Hooks{
		HeapUsedPct: func() float64 { return 60 },
		Stalls:      func() uint64 { return stalls },
		EmergencyGC: func() { emergencies++ },
	}, nil, NewStats())

	ctrl.Poll() // initialize the stall baseline, no plane record yet

	// Post-cycle occupancy above the default 85% threshold raises
	// heap_pressure; the flag alone is a Brownout-grade signal.
	plane.OnCycle(signals.CycleSignals{CycleRecord: &latency.CycleRecord{
		Seq: 1, VStart: 0, VEnd: 1000, HeapUsedAfter: 95, ColdFrac: -1,
	}})
	if got := ctrl.Poll(); got != StateBrownout {
		t.Fatalf("heap_pressure flag: %v, want brownout", got)
	}
	if emergencies != 0 {
		t.Fatal("emergency fired below Shed")
	}

	// One live stall while the pressure flag holds: Shed, and the
	// controller forces an early cycle — once for this plane record.
	stalls++
	if got := ctrl.Poll(); got != StateShed {
		t.Fatalf("stall under pressure: %v, want shed", got)
	}
	if emergencies != 1 {
		t.Fatalf("emergencies = %d, want 1", emergencies)
	}
	ctrl.Poll()
	ctrl.Poll()
	if emergencies != 1 {
		t.Fatalf("emergency re-fired on the same cycle record (%d)", emergencies)
	}

	// A new cycle record that still shows pressure re-arms the trigger.
	plane.OnCycle(signals.CycleSignals{CycleRecord: &latency.CycleRecord{
		Seq: 2, VStart: 1000, VEnd: 2000, HeapUsedAfter: 95, ColdFrac: -1,
	}})
	stalls++
	ctrl.Poll()
	if emergencies != 2 {
		t.Fatalf("emergencies = %d after second pressured cycle, want 2", emergencies)
	}
	if rep := ctrl.Report(); rep.EmergencyGCs != 2 {
		t.Fatalf("report emergency count %d, want 2", rep.EmergencyGCs)
	}
}

// TestControllerForcedEmergency drives the injector's ForceEmergency
// point: every poll posts an emergency GC regardless of state.
func TestControllerForcedEmergency(t *testing.T) {
	inj := faultinject.New(faultinject.Config{Seed: 1, ForceEmergency: 1})
	var emergencies int
	ctrl := NewController(Policy{Seed: 1}, nil, Hooks{
		EmergencyGC: func() { emergencies++ },
	}, inj, nil)
	ctrl.Poll()
	ctrl.Poll()
	if emergencies != 2 {
		t.Fatalf("forced emergencies = %d, want 2", emergencies)
	}
	if ctrl.State() != StateNormal {
		t.Fatal("forced emergency changed admission state")
	}
}

// TestAdmitPriorityAndDeterminism pins the admission semantics per state:
// Normal admits all; Brownout sheds bulk but admits point; Shed sheds all
// bulk and a seeded ~ShedPointFrac of point ops, deterministically.
func TestAdmitPriorityAndDeterminism(t *testing.T) {
	occ := 50.0
	st := NewStats()
	ctrl := NewController(Policy{Seed: 7}, nil, Hooks{
		HeapUsedPct: func() float64 { return occ },
	}, nil, st)

	for seq := uint64(0); seq < 100; seq++ {
		if ctrl.Admit(PriorityPoint, seq) != nil || ctrl.Admit(PriorityBulk, seq) != nil {
			t.Fatalf("normal state shed seq %d", seq)
		}
	}

	occ = 90
	ctrl.Poll()
	if ctrl.State() != StateBrownout {
		t.Fatal("setup: not in brownout")
	}
	for seq := uint64(0); seq < 100; seq++ {
		if err := ctrl.Admit(PriorityPoint, seq); err != nil {
			t.Fatalf("brownout shed a point op: %v", err)
		}
		err := ctrl.Admit(PriorityBulk, seq)
		if !errors.Is(err, ErrOverload) {
			t.Fatalf("brownout admitted bulk seq %d", seq)
		}
		var oe *Error
		if !errors.As(err, &oe) || oe.State != StateBrownout || oe.Priority != PriorityBulk || oe.Seq != seq || oe.Forced {
			t.Fatalf("shed error fields: %+v", oe)
		}
	}

	occ = 100
	ctrl.Poll()
	if ctrl.State() != StateShed {
		t.Fatal("setup: not in shed")
	}
	pointSheds := 0
	for seq := uint64(0); seq < 4000; seq++ {
		if ctrl.Admit(PriorityBulk, seq) == nil {
			t.Fatalf("shed state admitted bulk seq %d", seq)
		}
		first := ctrl.Admit(PriorityPoint, seq)
		if (ctrl.Admit(PriorityPoint, seq) == nil) != (first == nil) {
			t.Fatalf("admission of (point, %d) not deterministic", seq)
		}
		if first != nil {
			pointSheds++
		}
	}
	frac := shedPointFrac
	if lo, hi := int(2800*frac), int(5200*frac); pointSheds < lo || pointSheds > hi {
		t.Fatalf("point sheds %d/4000, want roughly %v", pointSheds, frac)
	}

	rep := st.Report(1_000_000)
	if rep.ShedBulk == 0 || rep.ShedPoint == 0 || rep.Admitted == 0 {
		t.Fatalf("stats did not see both priorities: %+v", rep)
	}
	if rep.ShedRate <= 0 || rep.ShedRate >= 1 {
		t.Fatalf("shed rate %v out of (0,1)", rep.ShedRate)
	}
}

// TestAdmitForcedShed: the injector can force every admission decision to
// reject, tagged Forced, without the controller leaving Normal.
func TestAdmitForcedShed(t *testing.T) {
	inj := faultinject.New(faultinject.Config{Seed: 3, ForceShed: 1})
	st := NewStats()
	ctrl := NewController(Policy{Seed: 1}, nil, Hooks{}, inj, st)
	for seq := uint64(0); seq < 50; seq++ {
		err := ctrl.Admit(PriorityPoint, seq)
		var oe *Error
		if !errors.As(err, &oe) || !oe.Forced {
			t.Fatalf("seq %d: %v, want forced shed", seq, err)
		}
	}
	if rep := ctrl.Report(); rep.ForcedSheds != 50 || rep.ShedPoint != 50 {
		t.Fatalf("forced-shed accounting: %+v", rep)
	}
}

// TestPolicyConstants: the calibrated constants keep the orderings the
// controller relies on (brownout before shed, a goodput bound inside the
// deadline).
func TestPolicyConstants(t *testing.T) {
	if brownoutHeapPct >= shedHeapPct || GoodputSLOCycles >= DeadlineCycles ||
		shedPointFrac <= 0 || shedPointFrac >= brownoutBulkFrac {
		t.Fatal("overload constants out of order")
	}
	if MaxRetries != 1 {
		t.Fatalf("MaxRetries = %d, want 1", MaxRetries)
	}
}

// TestStatsMergeReportValidate: outcome accounting survives a cross-thread
// merge and the report invariants hold.
func TestStatsMergeReportValidate(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.RecordSuccess(100, true)
	a.RecordSuccess(5_000_000, false)
	a.RecordRetry()
	a.AddServeSpan(1_000_000)
	a.AddServeAllocBytes(4096)
	b.RecordSuccess(200, true)
	b.RecordFailure()
	b.RecordDeadlineExceeded()
	b.RecordOOMFailure()
	a.Merge(b)

	rep := a.Report(1_000_000)
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Successes != 3 || rep.Goodput != 2 || rep.Failures != 1 {
		t.Fatalf("merged counts: %+v", rep)
	}
	if rep.Badput != (rep.Successes-rep.Goodput)+rep.Failures {
		t.Fatalf("badput %d does not partition", rep.Badput)
	}
	if rep.DeadlineExceeded != 1 || rep.OOMFailures != 1 || rep.Retries != 1 {
		t.Fatalf("fast-fail counts lost in merge: %+v", rep)
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
	rep.Badput++
	if rep.Validate() == nil {
		t.Fatal("Validate accepted a broken badput partition")
	}
}

// TestTelemetryBinding: the accumulator's family registers cleanly and the
// live handles count.
func TestTelemetryBinding(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := NewStats()
	ctrl := NewController(Policy{Seed: 1}, nil, Hooks{}, nil, st)
	st.BindTelemetry(reg)
	st.RecordSuccess(10, true)
	st.RecordFailure()
	ctrl.Admit(PriorityBulk, 1)
	if rep := st.Report(100); rep.Successes != 1 || rep.Failures != 1 {
		t.Fatalf("recording broke after binding: %+v", rep)
	}
}
