package signals

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hcsgc/internal/contention"
	"hcsgc/internal/locality"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// synthRec builds a deterministic synthetic cycle record, so tests can
// drive the plane without a collector.
func synthRec(seq uint64, util float64, stalls uint64) CycleSignals {
	vStart := (seq - 1) * 1_000_000
	vEnd := seq * 1_000_000
	return CycleSignals{
		CycleRecord: &latency.CycleRecord{
			Seq: seq, Trigger: "test", VStart: vStart, VEnd: vEnd,
			Pause1: 50_000, Pause2: 20_000, Pause3: 30_000,
			Stalls: stalls, Utilization: util,
			SegregationPurity: 0.9,
			Barrier:           latency.BarrierProfile{Mark: 100, Relocate: 50, Remap: 25},
			HeapUsedBefore:    60, HeapUsedAfter: 40,
			AllocBytes: 1 << 20, AllocPerKCycle: float64(1<<20) / 1000,
			MarkedBytes: 4 << 20, ColdFrac: 0.25,
		},
		Locality: locality.Signals{
			Present: true, ReuseP50: 12, ReuseP90: 80,
			StreamCoverage: 0.4, SegPurity: 0.8,
		},
		StallDist: latency.Dist{Count: stalls, P99: float64(stalls) * 1_000},
	}
}

// TestPlaneDeterminism: two planes fed identical records must produce
// byte-identical snapshots — the /signals payload (and the controller
// input it becomes) is a pure function of the cycle stream.
func TestPlaneDeterminism(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	for seq := uint64(1); seq <= 16; seq++ {
		rec := synthRec(seq, 0.3+0.05*float64(seq%8), seq%3)
		a.OnCycle(rec)
		b.OnCycle(rec)
	}
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

// TestPlaneRingBound: the history retains the last History records
// oldest-first, while the cycle count keeps counting; Lookup only finds
// retained cycles.
func TestPlaneRingBound(t *testing.T) {
	p := New(Config{History: 4})
	for seq := uint64(1); seq <= 10; seq++ {
		p.OnCycle(synthRec(seq, 0.9, 0))
	}
	s := p.Snapshot()
	if s.Cycles != 10 {
		t.Fatalf("Cycles = %d, want 10", s.Cycles)
	}
	if len(s.Records) != 4 {
		t.Fatalf("retained %d records, want 4", len(s.Records))
	}
	for i, want := range []uint64{7, 8, 9, 10} {
		if s.Records[i].Seq != want {
			t.Fatalf("record %d seq = %d, want %d (oldest first)", i, s.Records[i].Seq, want)
		}
	}
	if s.Latest == nil || s.Latest.Seq != 10 {
		t.Fatalf("Latest = %+v, want seq 10", s.Latest)
	}
	if _, ok := p.Lookup(10); !ok {
		t.Fatal("Lookup(10) missed a retained cycle")
	}
	if _, ok := p.Lookup(3); ok {
		t.Fatal("Lookup(3) found an evicted cycle")
	}
	if _, ok := p.Lookup(0); ok {
		t.Fatal("Lookup(0) must report not-found (the no-cycle sentinel)")
	}
}

// TestPlaneEWMAAndTrend pins the derivation: first observation seeds the
// EWMA (trend 0), later ones smooth with ewmaAlpha.
func TestPlaneEWMAAndTrend(t *testing.T) {
	p := New(Config{})
	p.OnCycle(synthRec(1, 1.0, 0))
	p.OnCycle(synthRec(2, 0.0, 0))
	latest, ok := p.Latest()
	if !ok {
		t.Fatal("no latest record")
	}
	var util *DerivedSignal
	for i := range latest.Derived {
		if latest.Derived[i].Name == SigUtilization {
			util = &latest.Derived[i]
		}
	}
	if util == nil {
		t.Fatalf("derived %s missing; got %+v", SigUtilization, latest.Derived)
	}
	// 1 then 0: the EWMA moves ewmaAlpha of the way from 1 towards 0.
	const eps = 1e-12
	if util.Value != 0 || math.Abs(util.EWMA-(1-ewmaAlpha)) > eps || math.Abs(util.Trend+ewmaAlpha) > eps {
		t.Fatalf("utilization derived = %+v, want value 0, ewma %v, trend %v", util, 1-ewmaAlpha, -ewmaAlpha)
	}
	// Emission follows DerivedOrder.
	pos := map[string]int{}
	for i, name := range DerivedOrder {
		pos[name] = i
	}
	last := -1
	for _, d := range latest.Derived {
		if pos[d.Name] < last {
			t.Fatalf("derived signals out of DerivedOrder: %+v", latest.Derived)
		}
		last = pos[d.Name]
	}
}

// TestPlaneSkipsUnmeasuredSignals: cold_frac and the locality signals
// stay out of the derived series (no zero pollution) when unmeasured.
func TestPlaneSkipsUnmeasuredSignals(t *testing.T) {
	p := New(Config{})
	rec := synthRec(1, 0.9, 0)
	rec.ColdFrac = -1
	rec.Locality = locality.Signals{}
	p.OnCycle(rec)
	latest, _ := p.Latest()
	for _, d := range latest.Derived {
		switch d.Name {
		case SigColdFrac, SigReuseP50, SigStreamCoverage, SigSegPurity:
			t.Fatalf("unmeasured signal %q emitted: %+v", d.Name, d)
		}
	}
}

// TestPlaneFlags trips every anomaly threshold in one record and none in
// a clean one.
func TestPlaneFlags(t *testing.T) {
	p := New(Config{})
	bad := synthRec(1, 0.1, 5) // low utilization, stall spike
	bad.Pause2 = 300_000
	bad.HeapUsedAfter = 92
	bad.Locality.SegPurity = 0.2
	bad.Contention = contention.LockDelta{
		Present: true, Acquisitions: 100, Contended: 40, ContendedFrac: 0.4,
	}
	p.OnCycle(bad)
	latest, _ := p.Latest()
	got := strings.Join(latest.Flags, ",")
	for _, want := range FlagNames {
		if !strings.Contains(got, want) {
			t.Fatalf("flags = %q, missing %q", got, want)
		}
	}

	p2 := New(Config{})
	p2.OnCycle(synthRec(1, 0.9, 0))
	latest2, _ := p2.Latest()
	if len(latest2.Flags) != 0 {
		t.Fatalf("clean record raised flags %v", latest2.Flags)
	}
}

// TestPlanePurityDropReadsMarkEndPurity: without a locality profiler the
// purity flag reads the cycle record's own mark-end measurement.
func TestPlanePurityDropReadsMarkEndPurity(t *testing.T) {
	p := New(Config{})
	rec := synthRec(1, 0.9, 0)
	rec.Locality = locality.Signals{}
	rec.SegregationPurity = 0.1
	p.OnCycle(rec)
	latest, _ := p.Latest()
	found := false
	for _, f := range latest.Flags {
		if f == FlagPurityDrop {
			found = true
		}
	}
	if !found {
		t.Fatalf("purity_drop not raised from the record's purity; flags = %v", latest.Flags)
	}
}

// TestPlaneTelemetry: the hcsgc_signal_* families land in the Prometheus
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
		`hcsgc_signal_ewma{signal="utilization"}`,
		`hcsgc_signal_trend{signal="heap_used_pct"}`,
		`hcsgc_signal_value{signal="cold_frac"} 0.25`,
		`hcsgc_signal_flags_total{flag="stall_spike"} 3`,
		`hcsgc_signal_flags_total{flag="long_pause"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := p.Snapshot().Cycles; n != 3 {
		t.Errorf("plane counted %d cycles, want 3", n)
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
