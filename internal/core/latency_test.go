package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"hcsgc/internal/faultinject"
	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/telemetry/latency"
)

// latEnv builds a collector with a latency tracker whose automatic dumps
// land in the returned builder. Dumps are written on the cycle/allocation
// paths of the calling goroutine, so reading the builder after RequestGC /
// TryAlloc returns is race-free.
func latEnv(t *testing.T, knobs Knobs, maxBytes uint64, cfg Config, latCfg latency.Config) (*Collector, *objmodel.Registry, *latency.Tracker, *strings.Builder, *heap.Verifier) {
	t.Helper()
	var dumpBuf strings.Builder
	latCfg.DumpTo = &dumpBuf
	tr := latency.New(latCfg)
	cfg.Knobs = knobs
	cfg.Latency = tr
	v := heap.NewVerifier()
	h := heap.New(heap.Config{MaxBytes: maxBytes, Injector: cfg.FaultInjector}, nil)
	h.SetVerifier(v)
	types := objmodel.NewRegistry()
	c, err := New(h, types, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, types, tr, &dumpBuf, v
}

// TestLatencyCycleAttribution runs real cycles and checks the tracker's
// per-cycle flight records: every STW pause recorded, phase durations
// attributed, the virtual timeline monotone.
func TestLatencyCycleAttribution(t *testing.T) {
	c, types, tr, _, _ := latEnv(t, Knobs{Hotness: true, RelocateAllSmallPages: true}, 128<<20, Config{}, latency.Config{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(1)
	buildList(m, node, 2000)
	const cycles = 3
	for i := 0; i < cycles; i++ {
		ref := m.LoadRoot(0)
		for j := 0; j < 500 && !ref.IsNull(); j++ {
			ref = m.LoadRef(ref, 0)
		}
		for j := 0; j < 100; j++ {
			m.AllocWordArray(64)
		}
		m.RequestGC()
	}
	r := tr.Report()
	for _, p := range []string{"stw1", "stw2", "stw3"} {
		if r.Pauses[p].Count != cycles {
			t.Errorf("%s count = %d, want %d", p, r.Pauses[p].Count, cycles)
		}
	}
	if r.Pauses["stw1"].Max == 0 {
		t.Error("stw1 recorded zero-cost pauses only despite live roots")
	}
	if len(r.Flight) != cycles {
		t.Fatalf("flight records = %d, want %d", len(r.Flight), cycles)
	}
	var prevEnd uint64
	for i, rec := range r.Flight {
		if rec.Seq != uint64(i+1) || rec.Trigger != "requested" {
			t.Errorf("flight[%d] = seq %d trigger %q", i, rec.Seq, rec.Trigger)
		}
		if rec.VEnd < rec.VStart || rec.VStart < prevEnd {
			t.Errorf("flight[%d] virtual timeline not monotone: [%d,%d] after %d",
				i, rec.VStart, rec.VEnd, prevEnd)
		}
		prevEnd = rec.VEnd
		if rec.Pause1 == 0 {
			t.Errorf("flight[%d] attributes no stw1 cost", i)
		}
		if rec.VerifyRuns == 0 {
			t.Errorf("flight[%d] verifier runs = 0 with verifier attached", i)
		}
	}
	// Post-cycle traversals must cross the barrier slow path somewhere
	// (remap/relocate healing of stale refs).
	var hits uint64
	for _, bp := range r.Barrier {
		hits += bp.Hits
	}
	if hits == 0 {
		t.Error("no barrier slow-path hits recorded across any path")
	}
	m.Close()
}

// TestLatencyBarrierPathsUnderLazy checks the relocate-path attribution
// LAZYRELOCATE exists to expose: with the GC standing down, the mutator's
// traversal relocates EC objects through the barrier slow path.
func TestLatencyBarrierPathsUnderLazy(t *testing.T) {
	c, types, tr, _, _ := latEnv(t, Knobs{Hotness: true, RelocateAllSmallPages: true, LazyRelocate: true}, 128<<20, Config{}, latency.Config{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(1)
	buildList(m, node, 2000)
	m.RequestGC()
	if c.CurrentPhase() != PhaseRelocate {
		t.Fatal("not in relocation era after lazy cycle")
	}
	walkList(t, m, 2000)
	r := tr.Report()
	if r.Barrier["relocate"].Hits == 0 {
		t.Fatal("lazy traversal produced no relocate barrier hits")
	}
	if r.Barrier["relocate"].Sampled.Count == 0 {
		t.Error("1-in-64 sampling captured no relocate latencies over 2000 relocations")
	}
	m.Close()
}

// TestFlightDumpOnInjectedVerifierFailure is the acceptance test for the
// automatic dump: a fault-injection hook at the PageRetire point (inside
// STW1) reports a synthetic verifier violation mid-cycle, and the cycle
// boundary must emit exactly one flight dump attributing it.
func TestFlightDumpOnInjectedVerifierFailure(t *testing.T) {
	inj := faultinject.New(faultinject.Config{}) // hook-only
	c, types, tr, dumpBuf, v := latEnv(t, Knobs{}, 128<<20, Config{FaultInjector: inj}, latency.Config{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(1)
	buildList(m, node, 500)

	m.RequestGC() // a clean cycle first: no dump
	if tr.Dumps() != 0 {
		t.Fatalf("clean cycle auto-dumped: %s", dumpBuf.String())
	}

	inj.SetHook(faultinject.PageRetire, func(uint64) {
		v.Report(heap.CheckAccounting, "injected", 0, 0, "synthetic violation for flight-recorder test")
	})
	m.RequestGC()
	inj.SetHook(faultinject.PageRetire, nil)

	if tr.Dumps() != 1 {
		t.Fatalf("dumps = %d, want exactly 1", tr.Dumps())
	}
	var d latency.FlightDump
	if err := json.Unmarshal([]byte(strings.TrimSpace(dumpBuf.String())), &d); err != nil {
		t.Fatalf("auto-dump is not one JSON object: %v\n%s", err, dumpBuf.String())
	}
	if !strings.Contains(d.Reason, "verifier reported 1 new violation") {
		t.Errorf("dump reason = %q", d.Reason)
	}
	if d.Report == nil || len(d.Report.Flight) != 2 {
		t.Fatalf("dump carries %d flight records, want 2", len(d.Report.Flight))
	}
	last := d.Report.Flight[len(d.Report.Flight)-1]
	if last.VerifyViolations != 1 {
		t.Errorf("dumped cycle's verifier violations = %d, want 1", last.VerifyViolations)
	}

	m.RequestGC() // no new violations: no further dump
	if tr.Dumps() != 1 {
		t.Error("dump repeated without new violations")
	}
	m.Close()
}

// TestFlightDumpOnOOM: exhausting the stall budget dumps the flight
// recorder with the allocation context before the structured error
// returns.
func TestFlightDumpOnOOM(t *testing.T) {
	c, _, tr, dumpBuf, _ := latEnv(t, Knobs{}, 4<<20, Config{TriggerPercent: 101, StallRetries: 2}, latency.Config{})
	m := c.NewMutator(64)
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		var ref heap.Ref
		ref, err = m.TryAllocWordArray(16 << 10)
		if err == nil {
			m.SetRoot(i, ref)
		}
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if tr.Dumps() == 0 {
		t.Fatal("OOM produced no flight dump")
	}
	var d latency.FlightDump
	line, _, _ := strings.Cut(strings.TrimSpace(dumpBuf.String()), "\n")
	if err := json.Unmarshal([]byte(line), &d); err != nil {
		t.Fatalf("dump parse: %v", err)
	}
	if !strings.Contains(d.Reason, "oom") {
		t.Errorf("dump reason = %q, want oom context", d.Reason)
	}
	if d.Report.Stall.Count == 0 {
		t.Error("OOM dump records no stalls")
	}
	m.Close()
}

// TestLatencyStallIntervals: stall-and-recover traffic lands in the stall
// distribution and per-cycle stall counts.
func TestLatencyStallIntervals(t *testing.T) {
	c, _, tr, _, _ := latEnv(t, Knobs{}, 8<<20, Config{TriggerPercent: 101}, latency.Config{})
	m := c.NewMutator(1)
	for i := 0; i < 100; i++ {
		ref, err := m.TryAllocWordArray(16 << 10)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		m.SetRoot(0, ref)
	}
	r := tr.Report()
	if m.Stalls == 0 || r.Stall.Count != m.Stalls {
		t.Fatalf("stall dist count = %d, mutator stalls = %d", r.Stall.Count, m.Stalls)
	}
	var flightStalls uint64
	for _, rec := range r.Flight {
		flightStalls += rec.Stalls
	}
	if flightStalls == 0 {
		t.Error("no stalls attributed to cycles in the flight recorder")
	}
	m.Close()
}

// TestVirtualCyclesClock pins the per-mutator virtual clock the KV
// serving workload measures request latency on: it starts at the
// mutator's own ledger, advances with Work, and jumps forward by the STW
// pause cost of a GC cycle (pauses stop every mutator, so they are
// charged to whatever request is in flight).
func TestVirtualCyclesClock(t *testing.T) {
	c, types, _, _, _ := latEnv(t, Knobs{}, 128<<20, Config{}, latency.Config{})
	node := types.Register("vnode", 2, []int{0})
	m := c.NewMutator(1)

	if got, want := m.VirtualCycles(), m.Cycles(); got != want {
		t.Fatalf("fresh mutator VirtualCycles = %d, want Cycles() = %d", got, want)
	}
	before := m.VirtualCycles()
	m.Work(1000)
	if got := m.VirtualCycles(); got != before+1000 {
		t.Fatalf("VirtualCycles after Work(1000) = %d, want %d", got, before+1000)
	}

	buildList(m, node, 500)
	preGC := m.VirtualCycles()
	m.RequestGC()
	pauses := c.PauseCycles()
	if pauses == 0 {
		t.Fatal("a GC cycle must accrue STW pause cost")
	}
	if got := m.VirtualCycles(); got < preGC+pauses {
		t.Fatalf("VirtualCycles after GC = %d, want >= %d (pre %d + pauses %d)",
			got, preGC+pauses, preGC, pauses)
	}
	// The collector's global clock dominates every mutator's clock.
	if global, own := c.VirtualCycles(), m.VirtualCycles(); global < own {
		t.Fatalf("global clock %d behind mutator clock %d", global, own)
	}
}

// TestVirtualCyclesChargesStalls forces allocation stalls in a tiny heap
// and checks the stall's elapsed virtual time lands on the stalled
// mutator's clock — the mechanism that keeps allocation stalls from
// vanishing out of open-loop request latency.
func TestVirtualCyclesChargesStalls(t *testing.T) {
	// Heap small enough that garbage churn must stall into GC: 8 MB with
	// the occupancy trigger off.
	c, types, tr, _, _ := latEnv(t, Knobs{}, 8<<20, Config{StallRetries: 64, TriggerPercent: 101}, latency.Config{})
	node := types.Register("snode", 2, []int{0})
	m := c.NewMutator(2)
	defer m.Close()
	// A second mutator that keeps the virtual clock moving while m
	// stalls (in a serving system, other server threads keep working).
	w := c.NewMutator(1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer w.Close()
		for {
			select {
			case <-stop:
				return
			default:
				w.Work(50)
				w.Safepoint()
			}
		}
	}()

	buildList(m, node, 1000)
	for i := 0; i < 40_000 && m.Stalls == 0; i++ {
		m.AllocWordArray(127)
	}
	close(stop)
	<-done
	if m.Stalls == 0 {
		t.Skip("no allocation stall triggered; heap sizing changed")
	}
	r := tr.Report()
	if r.Stall.Count == 0 {
		t.Fatal("tracker recorded no stalls despite Mutator.Stalls > 0")
	}
	if lower := m.Cycles() + c.PauseCycles(); m.VirtualCycles() <= lower && r.Stall.Max > 0 {
		t.Fatalf("stalls left no trace on VirtualCycles: %d <= ledger+pauses %d (stall max %v)",
			m.VirtualCycles(), lower, r.Stall.Max)
	}
}
