package signals

import (
	"encoding/json"
	"strings"
	"testing"

	"hcsgc/internal/locality"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// synthRec builds a deterministic synthetic cycle record, so tests can
// drive the plane without a collector.
func synthRec(seq uint64, util float64, stalls uint64) *latency.CycleRecord {
	vStart := (seq - 1) * 1_000_000
	vEnd := seq * 1_000_000
	return &latency.CycleRecord{
		Seq: seq, Trigger: "test", VStart: vStart, VEnd: vEnd,
		Pause1: 50_000, Pause2: 20_000, Pause3: 30_000,
		Stalls: stalls, Utilization: util,
		SegregationPurity: 0.9,
		Barrier:           latency.BarrierProfile{Mark: 100, Relocate: 50, Remap: 25},
		HeapUsedBefore:    60, HeapUsedAfter: 40,
		AllocBytes: 1 << 20, AllocPerKCycle: float64(1<<20) / 1000,
		MarkedBytes: 4 << 20, ColdFrac: 0.25,
		Locality: locality.Signals{
			Present: true, ReuseP50: 12, ReuseP90: 80,
			StreamCoverage: 0.4, SegPurity: 0.8,
		},
		StallDist: latency.Dist{Count: stalls, P99: float64(stalls) * 1_000},
	}
}

// logCycles attaches a fresh tracker to p and logs n synthetic cycles
// through it, as a collector would.
func logCycles(p *Plane, n uint64) []*latency.CycleRecord {
	tr := latency.New(latency.Config{})
	p.Attach(tr)
	for seq := uint64(1); seq <= n; seq++ {
		tr.OnCycle(synthRec(seq, 0.3+0.05*float64(seq%8), seq%3))
	}
	return tr.Log()
}

// TestPlaneDeterminism: two planes viewing identical cycle streams serve
// byte-identical snapshots — the /signals payload is a pure function of
// the cycle log.
func TestPlaneDeterminism(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	logCycles(a, 16)
	logCycles(b, 16)
	aj, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("snapshots diverge:\n%s\nvs\n%s", aj, bj)
	}
}

// TestPlaneRingBound: the window is the log's newest History records,
// oldest first, while the cycle count covers the whole log; Lookup reaches
// only the window and returns the logged record itself.
func TestPlaneRingBound(t *testing.T) {
	p := New(Config{History: 4})
	if s := p.Snapshot(); s.Cycles != 0 || s.Latest != nil || s.Records == nil {
		t.Fatalf("unattached snapshot = %+v, want no cycles and an empty window", s)
	}
	log := logCycles(p, 10)
	s := p.Snapshot()
	if s.Cycles != 10 {
		t.Fatalf("Cycles = %d, want 10", s.Cycles)
	}
	if len(s.Records) != 4 {
		t.Fatalf("retained %d records, want 4", len(s.Records))
	}
	for i, want := range []uint64{7, 8, 9, 10} {
		if s.Records[i] != log[want-1] {
			t.Fatalf("record %d = cycle %d, want the logged cycle %d (oldest first)", i, s.Records[i].Seq, want)
		}
	}
	if s.Latest != log[9] {
		t.Fatalf("Latest = %+v, want the logged cycle 10", s.Latest)
	}
	if p.Lookup(7) != log[6] || p.Lookup(10) != log[9] {
		t.Fatal("Lookup missed a cycle inside the window")
	}
	for _, seq := range []uint64{0, 6, 11} {
		if rec := p.Lookup(seq); rec != nil {
			t.Fatalf("Lookup(%d) = cycle %d, want nil (outside the window)", seq, rec.Seq)
		}
	}
}

// TestPlaneSkipsUnmeasuredSignals: cold_frac and the locality signals keep
// their last measured hcsgc_signal_value when a cycle did not measure them
// (no zero pollution).
func TestPlaneSkipsUnmeasuredSignals(t *testing.T) {
	p := New(Config{})
	reg := telemetry.NewRegistry()
	p.BindTelemetry(reg, nil)
	p.OnCycle(synthRec(1, 0.9, 0))
	rec := synthRec(2, 0.7, 0)
	rec.ColdFrac = -1
	rec.Locality = locality.Signals{}
	p.OnCycle(rec)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`hcsgc_signal_value{signal="utilization"} 0.7`,
		`hcsgc_signal_value{signal="cold_frac"} 0.25`,
		`hcsgc_signal_value{signal="reuse_p50_lines"} 12`,
		`hcsgc_signal_value{signal="stream_coverage"} 0.4`,
		`hcsgc_signal_value{signal="seg_purity"} 0.8`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPlaneTelemetry: the hcsgc_signal_value family lands in the Prometheus
// exposition and the Perfetto counter tracks carry the per-cycle series.
func TestPlaneTelemetry(t *testing.T) {
	p := New(Config{})
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1, 256)
	p.BindTelemetry(reg, rec)
	for seq := uint64(1); seq <= 3; seq++ {
		p.OnCycle(synthRec(seq, 0.2, 1))
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`hcsgc_signal_value{signal="utilization"} 0.2`,
		`hcsgc_signal_value{signal="max_pause_cycles"} 50000`,
		`hcsgc_signal_value{signal="cold_frac"} 0.25`,
		`hcsgc_signal_value{signal="stalls"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	tf := telemetry.BuildTrace(rec.Snapshot())
	counts := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "C" {
			counts[ev.Name]++
			if ev.Cat != "signals" {
				t.Errorf("counter %q category = %q, want signals", ev.Name, ev.Cat)
			}
		}
	}
	for _, name := range []string{
		"signal_alloc_kb_per_kcycle", "signal_stall_p99_cycles",
		"signal_heap_used_pct", "signal_cold_frac",
	} {
		if counts[name] != 3 {
			t.Errorf("counter track %q has %d samples, want 3", name, counts[name])
		}
	}
}
