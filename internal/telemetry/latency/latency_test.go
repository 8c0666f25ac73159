package latency

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"hcsgc/internal/telemetry"
)

// feedCycles drives n cycles of synthetic activity through a tracker.
func feedCycles(t *Tracker, n int) {
	v := uint64(0)
	for i := 0; i < n; i++ {
		t.RecordPause(0, v, 50)
		v += 50
		t.RecordPhase(PhaseMark, v, v+300)
		v += 300
		t.RecordPause(1, v, 20)
		v += 20
		t.RecordPhase(PhaseECSelect, v, v+40)
		v += 40
		t.RecordPause(2, v, 30)
		v += 30
		t.RecordPhase(PhaseRelocDrain, v, v+200)
		v += 200
		t.BarrierHit(PathMark)
		t.BarrierHit(PathMark)
		t.BarrierHit(PathRelocate)
		t.RecordBarrierLatency(PathMark, 12)
		t.OnCycle(&CycleRecord{Seq: uint64(i + 1), Trigger: "test", VStart: v - 640, VEnd: v})
	}
}

// TestTrackerEndToEnd: pauses, phases, stalls and barrier activity all
// land in the report with per-cycle attribution.
func TestTrackerEndToEnd(t *testing.T) {
	tr := New(Config{FlightRecords: 4})
	tr.RecordStall(10, 110, 0.25)
	feedCycles(tr, 3)

	r := tr.Report()
	if r.Pauses["stw1"].Count != 3 || r.Pauses["stw1"].Max != 50 {
		t.Errorf("stw1 = %+v", r.Pauses["stw1"])
	}
	if r.Phases["mark"].Count != 3 || r.Phases["mark"].P50 < 300 {
		t.Errorf("mark = %+v", r.Phases["mark"])
	}
	if r.Stall.Count != 1 || r.Stall.Max != 100 {
		t.Errorf("stall = %+v", r.Stall)
	}
	if r.Barrier["mark"].Hits != 6 || r.Barrier["relocate"].Hits != 3 {
		t.Errorf("barrier = %+v", r.Barrier)
	}
	if r.Barrier["mark"].Sampled.Count != 3 {
		t.Errorf("sampled mark latencies = %+v", r.Barrier["mark"].Sampled)
	}
	if len(r.MMU.Windows) != len(DefaultMMUWindows) {
		t.Errorf("MMU ladder %d windows", len(r.MMU.Windows))
	}
	// Per-cycle barrier deltas: each cycle contributed 2 mark + 1 relocate.
	for _, rec := range r.Flight {
		if rec.Barrier.Mark != 2 || rec.Barrier.Relocate != 1 {
			t.Errorf("cycle %d barrier delta = %+v", rec.Seq, rec.Barrier)
		}
		if rec.MarkCycles != 300 || rec.RelocateCycles != 200 || rec.ECSelectCycles != 40 {
			t.Errorf("cycle %d phases = %d/%d/%d", rec.Seq, rec.MarkCycles, rec.ECSelectCycles, rec.RelocateCycles)
		}
	}
}

// TestFlightRingBounds: the flight recorder carries the cycle log's last N
// records oldest-first, while the log keeps every cycle.
func TestFlightRingBounds(t *testing.T) {
	tr := New(Config{FlightRecords: 4})
	feedCycles(tr, 10)
	r := tr.Report()
	if r.Cycles != 10 || len(tr.Log()) != 10 {
		t.Fatalf("cycles = %d, log holds %d", r.Cycles, len(tr.Log()))
	}
	if len(r.Flight) != 4 {
		t.Fatalf("flight retains %d records, want 4", len(r.Flight))
	}
	for i, rec := range r.Flight {
		if want := uint64(7 + i); rec.Seq != want {
			t.Errorf("flight[%d].Seq = %d, want %d (oldest-first)", i, rec.Seq, want)
		}
	}
}

// TestAutoDumpLimit: automatic dumps are single-line JSON, capped.
func TestAutoDumpLimit(t *testing.T) {
	var buf strings.Builder
	tr := New(Config{DumpTo: &buf})
	feedCycles(tr, 1)
	for i := 0; i < autoDumpLimit+3; i++ {
		tr.AutoDump("test reason")
	}
	if tr.Dumps() != autoDumpLimit {
		t.Fatalf("dumps = %d, want %d", tr.Dumps(), autoDumpLimit)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != autoDumpLimit {
		t.Fatalf("wrote %d lines, want %d", len(lines), autoDumpLimit)
	}
	var d FlightDump
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("dump line does not parse: %v", err)
	}
	if d.Reason != "test reason" || d.Report == nil || len(d.Report.Flight) != 1 {
		t.Fatalf("dump = %+v", d)
	}
}

// TestWriteFlightShape: the on-demand dump is indented JSON carrying the
// full report.
func TestWriteFlightShape(t *testing.T) {
	tr := New(Config{})
	feedCycles(tr, 2)
	var buf strings.Builder
	if err := tr.WriteFlight(&buf, "on-demand"); err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal([]byte(buf.String()), &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "on-demand" || len(d.Report.Flight) != 2 {
		t.Fatalf("dump = reason %q, %d records", d.Reason, len(d.Report.Flight))
	}
	if !strings.Contains(buf.String(), "\n  ") {
		t.Error("on-demand dump must be indented")
	}
}

// TestSampleBarrier: the sampler fires exactly once per 2^shift entries.
func TestSampleBarrier(t *testing.T) {
	tr := New(Config{})
	fired := 0
	for i := 0; i < 8<<sampleShift; i++ {
		if tr.EnterBarrier() {
			fired++
		}
	}
	if fired != 8 {
		t.Fatalf("sampler fired %d/%d, want 8 (shift %d)", fired, 8<<sampleShift, sampleShift)
	}
}

// TestBarrierEntryCountsOnce: a mark-phase entry that resolves forwarding
// hits the remap and mark paths, and reads as one slow-path entry in the
// record, the barrier_slow_per_kcycle signal and hcsgc_barrier_slow_total.
func TestBarrierEntryCountsOnce(t *testing.T) {
	tr := New(Config{})
	reg := telemetry.NewRegistry()
	tr.BindTelemetry(reg, nil)
	tr.EnterBarrier()
	tr.BarrierHit(PathRemap)
	tr.BarrierHit(PathMark)
	rec := &CycleRecord{Seq: 1, VStart: 0, VEnd: 1000}
	tr.OnCycle(rec)

	if rec.Barrier.Entries != 1 || rec.Barrier.Mark != 1 || rec.Barrier.Remap != 1 {
		t.Errorf("barrier profile = %+v, want one entry taking the mark and remap paths", rec.Barrier)
	}
	if got := reg.Gauge("hcsgc_signal_value", "", "signal", "barrier_slow_per_kcycle").Value(); got != 1 {
		t.Errorf("barrier_slow_per_kcycle = %v, want 1 (one entry in 1000 cycles)", got)
	}
	if got := reg.Counter("hcsgc_barrier_slow_total", "").Value(); got != 1 {
		t.Errorf("hcsgc_barrier_slow_total = %d, want 1", got)
	}
}

// TestBindTelemetry: the metric families register, gauges and counters
// sync at cycle boundaries, and the summaries are live HDR views.
func TestBindTelemetry(t *testing.T) {
	tr := New(Config{})
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1, 256)
	tr.BindTelemetry(reg, rec)
	feedCycles(tr, 2)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE hcsgc_pause_cycles summary",
		`hcsgc_pause_cycles{phase="stw1",quantile="0.5"} 50`,
		`hcsgc_pause_cycles_count{phase="stw1"} 2`,
		`hcsgc_phase_cycles{phase="mark",quantile="0.99"} 300`,
		"# TYPE hcsgc_stall_cycles summary",
		`hcsgc_barrier_path_total{path="mark"} 4`,
		`hcsgc_barrier_path_cycles{path="mark",quantile="0.5"} 12`,
		`hcsgc_mmu_ratio{window_cycles="1000"}`,
		"hcsgc_flight_dumps_remaining 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestCounterTrackEmission is the Perfetto coverage: each OnCycle emits
// one EvCounter sample per MMU window plus utilization, monotonically
// timestamped, rendering as "C" events in the latency category.
func TestCounterTrackEmission(t *testing.T) {
	tr := New(Config{})
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1, 256)
	tr.BindTelemetry(reg, rec)
	feedCycles(tr, 3)

	tf := telemetry.BuildTrace(rec.Snapshot())
	byName := map[string][]telemetry.TraceEvent{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "C" {
			byName[ev.Name] = append(byName[ev.Name], ev)
		}
	}
	for _, name := range []string{
		"latency_mmu_1k", "latency_mmu_5k", "latency_mmu_20k",
		"latency_mmu_100k", "latency_mutator_utilization",
	} {
		evs := byName[name]
		if len(evs) != 3 {
			t.Errorf("counter track %q has %d samples, want 3 (one per cycle)", name, len(evs))
			continue
		}
		last := -1.0
		for _, ev := range evs {
			if ev.Cat != "latency" {
				t.Errorf("%q category = %q, want latency", name, ev.Cat)
			}
			if ev.TS < last {
				t.Errorf("%q timestamps not monotone: %v after %v", name, ev.TS, last)
			}
			last = ev.TS
			v, ok := ev.Args["value"].(float64)
			if !ok || v < 0 || v > 1 {
				t.Errorf("%q value = %v, want float in [0,1]", name, ev.Args["value"])
			}
		}
	}
}

// TestAggregate: HDR distributions merge exactly, hits sum, MMU takes the
// per-window minimum.
func TestAggregate(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	feedCycles(a, 2)
	feedCycles(b, 3)
	r := Aggregate([]*Tracker{a, nil, b})
	if r.Pauses["stw1"].Count != 5 {
		t.Errorf("aggregated stw1 count = %d, want 5", r.Pauses["stw1"].Count)
	}
	if r.Barrier["mark"].Hits != 10 {
		t.Errorf("aggregated mark hits = %d, want 10", r.Barrier["mark"].Hits)
	}
	if r.Cycles != 5 {
		t.Errorf("aggregated cycles = %d, want 5", r.Cycles)
	}
	if len(r.MMU.Windows) != len(DefaultMMUWindows) {
		t.Fatalf("aggregated ladder %d windows", len(r.MMU.Windows))
	}
	for i, pt := range r.MMU.Windows {
		am, bm := mmuOf(a.MMUSnapshot(), pt.WindowCycles), mmuOf(b.MMUSnapshot(), pt.WindowCycles)
		want := am
		if bm < want {
			want = bm
		}
		if pt.MMU != want {
			t.Errorf("window %d: aggregate MMU %v, want min(%v, %v)", i, pt.MMU, am, bm)
		}
	}
}

// TestRecordPhaseZeroDuration pins the zero-duration contract: a phase
// execution over [v, v] — routine in single-mutator synchronous runs,
// where the virtual clock cannot advance while the mutator is parked —
// must land in the distribution's count (with a 0-cycle sample) and must
// appear in the cycle record's per-phase accumulator. Inverted intervals
// are caller bugs and stay dropped.
func TestRecordPhaseZeroDuration(t *testing.T) {
	tr := New(Config{DumpTo: io.Discard})
	tr.RecordPhase(PhaseMark, 100, 100) // zero duration: recorded
	tr.RecordPhase(PhaseMark, 100, 250) // normal
	tr.RecordPhase(PhaseMark, 300, 200) // inverted: dropped

	r := tr.Report()
	d := r.Phases[PhaseMark.String()]
	if d.Count != 2 {
		t.Fatalf("mark phase count = %d, want 2 (zero-duration sample must count)", d.Count)
	}
	if d.Max != 150 {
		t.Fatalf("mark phase max = %v, want 150", d.Max)
	}

	// The flight record's accumulator saw 0 + 150 cycles.
	tr.OnCycle(&CycleRecord{Seq: 1, VStart: 100, VEnd: 260})
	recs := tr.Report().Flight
	if len(recs) != 1 || recs[0].MarkCycles != 150 {
		t.Fatalf("flight mark cycles = %+v, want one record with 150", recs)
	}
}
