package latency

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hcsgc/internal/telemetry"
)

// synthRec builds a deterministic synthetic cycle record with every field
// the collector owns filled in, so tests can drive the tracker without a
// collector.
func synthRec(seq uint64, stalls uint64) *CycleRecord {
	return &CycleRecord{
		Seq: seq, Trigger: "test", VStart: (seq - 1) * 1_000_000, VEnd: seq * 1_000_000,
		Pause1: 50_000, Pause2: 20_000, Pause3: 30_000,
		Stalls: stalls, SegregationPurity: 0.9,
		HeapUsedBefore: 60, HeapUsedAfter: 40,
		AllocBytes: 1 << 20, AllocPerKCycle: float64(1<<20) / 1000,
		MarkedBytes: 4 << 20, ColdFrac: 0.25,
		PrefetchAccuracy: 0.9, PrefetchCoverage: 0.4,
	}
}

// logCycles logs n synthetic cycles through tr, as a collector would, with
// a pause and a stall inside each so the tracker-completed fields vary.
func logCycles(tr *Tracker, n uint64) []*CycleRecord {
	for seq := uint64(1); seq <= n; seq++ {
		rec := synthRec(seq, seq%3)
		tr.RecordPause(0, rec.VStart+1000, 10_000*seq)
		tr.RecordStall(rec.VStart+500_000, rec.VStart+500_000+1000*seq, 0.5)
		tr.OnCycle(rec)
	}
	return tr.Log()
}

// exposition renders reg's Prometheus text.
func exposition(reg *telemetry.Registry) string {
	var b strings.Builder
	reg.WritePrometheus(&b)
	return b.String()
}

// TestWindowDeterminism: two trackers fed identical cycle streams serve
// byte-identical windows — the /signals payload is a pure function of the
// cycle log.
func TestWindowDeterminism(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	logCycles(a, 16)
	logCycles(b, 16)
	aj, err := json.Marshal(a.Window())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Window())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("windows diverge:\n%s\nvs\n%s", aj, bj)
	}
}

// TestWindowRingBound: the window is the log's newest FlightRecords
// records, oldest first, and the very records Report().Flight carries,
// while the cycle count covers the whole log; Lookup reaches every logged
// cycle and returns the logged record itself.
func TestWindowRingBound(t *testing.T) {
	tr := New(Config{FlightRecords: 4})
	if w := tr.Window(); w.Cycles != 0 || w.Latest != nil || w.Records == nil || w.History != 4 {
		t.Fatalf("empty window = %+v, want no cycles and an empty window of 4", w)
	}
	log := logCycles(tr, 10)
	w := tr.Window()
	if w.Cycles != 10 {
		t.Fatalf("Cycles = %d, want 10", w.Cycles)
	}
	if len(w.Records) != 4 {
		t.Fatalf("retained %d records, want 4", len(w.Records))
	}
	flight := tr.Report().Flight
	for i, want := range []uint64{7, 8, 9, 10} {
		if w.Records[i] != log[want-1] {
			t.Fatalf("record %d = cycle %d, want the logged cycle %d (oldest first)", i, w.Records[i].Seq, want)
		}
		if flight[i] != log[want-1] {
			t.Fatalf("flight record %d is not the logged cycle %d", i, want)
		}
	}
	if w.Latest != log[9] {
		t.Fatalf("Latest = %+v, want the logged cycle 10", w.Latest)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if tr.Lookup(seq) != log[seq-1] {
			t.Fatalf("Lookup(%d) is not the logged cycle %d", seq, seq)
		}
	}
	for _, seq := range []uint64{0, 11} {
		if rec := tr.Lookup(seq); rec != nil {
			t.Fatalf("Lookup(%d) = cycle %d, want nil (not logged)", seq, rec.Seq)
		}
	}
	var none *Tracker
	if none.Lookup(1) != nil {
		t.Fatal("a nil tracker found a cycle")
	}
}

// TestSignalsSkipUnmeasured: cold_frac and stream_coverage (the prefetch
// coverage) keep their last measured hcsgc_signal_value when a cycle did not measure them (no zero
// pollution).
func TestSignalsSkipUnmeasured(t *testing.T) {
	tr := New(Config{})
	reg := telemetry.NewRegistry()
	tr.BindTelemetry(reg, nil)
	tr.OnCycle(synthRec(1, 0))
	rec := synthRec(2, 0)
	rec.ColdFrac = -1
	rec.PrefetchAccuracy, rec.PrefetchCoverage = -1, -1
	tr.OnCycle(rec)

	out := exposition(reg)
	for _, want := range []string{
		fmt.Sprintf(`hcsgc_signal_value{signal="utilization"} %g`, rec.Utilization),
		`hcsgc_signal_value{signal="cold_frac"} 0.25`,
		`hcsgc_signal_value{signal="stream_coverage"} 0.4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSignalTelemetry: the hcsgc_signal_value family lands in the
// Prometheus exposition and the Perfetto counter tracks carry the
// per-cycle series.
func TestSignalTelemetry(t *testing.T) {
	tr := New(Config{})
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1, 256)
	tr.BindTelemetry(reg, rec)
	log := logCycles(tr, 3)
	last := log[2]

	out := exposition(reg)
	for _, want := range []string{
		fmt.Sprintf(`hcsgc_signal_value{signal="utilization"} %g`, last.Utilization),
		`hcsgc_signal_value{signal="max_pause_cycles"} 50000`,
		`hcsgc_signal_value{signal="cold_frac"} 0.25`,
		`hcsgc_signal_value{signal="stalls"} 0`,
		fmt.Sprintf(`hcsgc_signal_value{signal="stall_p99_cycles"} %g`, last.StallDist.P99),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if last.Utilization == 1 || last.StallDist.P99 == 0 {
		t.Errorf("cycle 3: utilization %v, stall p99 %v: the tracker completed nothing", last.Utilization, last.StallDist.P99)
	}

	tf := telemetry.BuildTrace(rec.Snapshot())
	counts := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "C" && strings.HasPrefix(ev.Name, "signal_") {
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
	coverage := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "C" && ev.Name == "locality_stream_coverage" {
			coverage++
			if ev.Cat != "locality" || ev.Args["value"] != 0.4 {
				t.Errorf("prefetch coverage sample %+v, want category locality and the record's 0.4", ev)
			}
		}
	}
	if coverage != 3 {
		t.Errorf("locality_stream_coverage has %d samples, want 3", coverage)
	}
}

// TestSignalTracks pins the Perfetto track name and trace category of
// every signals row that has a track, in table order: a trace renders
// these names, so a renamed track breaks its readers.
func TestSignalTracks(t *testing.T) {
	want := [][2]string{
		{"latency_mutator_utilization", "latency"},
		{"signal_stall_p99_cycles", "signals"},
		{"signal_alloc_kb_per_kcycle", "signals"},
		{"signal_heap_used_pct", "signals"},
		{"signal_cold_frac", "signals"},
		{"locality_stream_coverage", "locality"},
		{"locality_seg_purity", "locality"},
		{"signal_worker_imbalance", "signals"},
		{"latency_mmu_1k", "latency"},
		{"latency_mmu_5k", "latency"},
		{"latency_mmu_20k", "latency"},
		{"latency_mmu_100k", "latency"},
		{"contention_contended_acq", "contention"},
		{"contention_cas_retries", "contention"},
	}
	var got [][2]string
	for _, s := range signals {
		if s.track == 0 {
			continue
		}
		ev := telemetry.BuildTrace([]telemetry.Event{{Kind: telemetry.EvCounter, Arg: s.track}}).TraceEvents[0]
		got = append(got, [2]string{ev.Name, ev.Cat})
	}
	if !slices.Equal(got, want) {
		t.Errorf("signal tracks = %v, want %v", got, want)
	}
}
