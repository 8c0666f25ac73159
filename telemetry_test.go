// End-to-end test of the telemetry subsystem against a live runtime:
// runs GC cycles with an attached sink, then checks the Prometheus
// exposition, the JSON snapshot, the Chrome trace, and the GC log the
// HTTP endpoints serve — the acceptance surface of the observability
// subsystem.
package hcsgc_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hcsgc"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// runTelemetryWorkload drives a small allocate/traverse/GC workload with
// the given sink attached and returns after two full cycles.
func runTelemetryWorkload(t *testing.T, sink *hcsgc.TelemetrySink) {
	t.Helper()
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    64 << 20,
		Knobs:           hcsgc.Knobs{Hotness: true, RelocateAllSmallPages: true, LazyRelocate: true},
		DisableMemModel: true,
		Telemetry:       sink,
	})
	defer rt.Close()
	obj := rt.Types.Register("telemetry.obj", 3, nil)
	m := rt.NewMutator(1)
	defer m.Close()

	const n = 20000
	arr := m.AllocRefArray(n)
	m.SetRoot(0, arr)
	for i := 0; i < n; i++ {
		o := m.Alloc(obj)
		m.StoreField(o, 0, uint64(i))
		m.StoreRef(m.LoadRoot(0), i, o)
	}
	for cyc := 0; cyc < 2; cyc++ {
		// Touch a subset so the next mark flags it hot, then collect; in
		// lazy mode the traversal after GC makes mutators win races and
		// the next cycle's drain makes GC workers win the rest.
		for i := 0; i < n; i += 3 {
			m.LoadRef(m.LoadRoot(0), i)
		}
		m.RequestGC()
	}
}

func TestTelemetryEndToEnd(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	runTelemetryWorkload(t, sink)

	srv, err := sink.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	// --- /metrics: Prometheus text exposition with the core schema.
	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE hcsgc_gc_cycles_total counter",
		"hcsgc_gc_cycles_total 2",
		"# TYPE hcsgc_pause_cycles summary",
		`hcsgc_pause_cycles_count{phase="stw1"} 2`,
		`hcsgc_pause_cycles{phase="stw1",quantile="0.99"}`,
		"# TYPE hcsgc_mmu_ratio gauge",
		`hcsgc_mmu_ratio{window_cycles="1000"}`,
		"# TYPE hcsgc_barrier_path_total counter",
		`hcsgc_barrier_path_total{path="mark"}`,
		`hcsgc_reloc_objects_total{who="mutator"}`,
		`hcsgc_reloc_objects_total{who="gc"}`,
		`hcsgc_signal_value{signal="cold_frac"}`,
		"hcsgc_ec_pages_total",
		"hcsgc_safepoint_wait_ns_count",
		"hcsgc_barrier_slow_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", metrics)
	}

	// Both parties must have relocated something in this workload, and
	// the cold fraction must reflect the partially hot heap.
	reg := sink.Metrics()
	mut := reg.Counter("hcsgc_reloc_objects_total", "", "who", "mutator").Value()
	gc := reg.Counter("hcsgc_reloc_objects_total", "", "who", "gc").Value()
	if mut == 0 || gc == 0 {
		t.Errorf("reloc winners: mutator=%d gc=%d, want both > 0", mut, gc)
	}
	if c := reg.Gauge("hcsgc_signal_value", "", "signal", "cold_frac").Value(); c < 0 || c >= 1 {
		t.Errorf("cold_frac = %v, want in [0, 1)", c)
	}

	// --- /trace: valid trace_event JSON with matched B/E pairs for the
	// mark and relocate phases.
	var tf telemetry.TraceFile
	if err := json.Unmarshal([]byte(get("/trace")), &tf); err != nil {
		t.Fatalf("/trace does not parse: %v", err)
	}
	phases := map[string]map[string]int{}
	for _, ev := range tf.TraceEvents {
		if phases[ev.Name] == nil {
			phases[ev.Name] = map[string]int{}
		}
		phases[ev.Name][ev.Ph]++
	}
	for _, span := range []string{"cycle", "mark", "relocate", "stw1", "stw2", "stw3"} {
		b, e := phases[span]["B"], phases[span]["E"]
		x := phases[span]["X"]
		if (b == 0 || b != e) && x == 0 {
			t.Errorf("span %q: B=%d E=%d X=%d, want matched B/E or X", span, b, e, x)
		}
	}
	if phases["reloc_win"]["i"] == 0 {
		t.Error("trace has no reloc_win instants")
	}
	if phases["page_alloc"]["i"] == 0 {
		t.Error("trace has no page_alloc instants")
	}

	// --- /gclog: the collector's ZGC-style log.
	gclog := get("/gclog")
	if !strings.Contains(gclog, "[gc] GC(1)") || !strings.Contains(gclog, "[gc] totals:") {
		t.Errorf("/gclog missing cycle blocks:\n%s", gclog)
	}

	// --- /mmu: MMU curve JSON with the default window ladder.
	var mmu struct {
		Windows     []map[string]float64 `json:"windows"`
		Utilization float64              `json:"utilization"`
	}
	if err := json.Unmarshal([]byte(get("/mmu")), &mmu); err != nil {
		t.Fatalf("/mmu does not parse: %v", err)
	}
	if len(mmu.Windows) != 4 {
		t.Errorf("/mmu windows = %d, want 4", len(mmu.Windows))
	}
	for _, w := range mmu.Windows {
		if v := w["mmu"]; v < 0 || v > 1 {
			t.Errorf("/mmu window %v: mmu %v outside [0,1]", w["window_cycles"], v)
		}
	}

	// --- /flightrecorder: on-demand flight dump with per-cycle records.
	var dump struct {
		Reason string `json:"reason"`
		Report struct {
			Flight []map[string]any `json:"flight"`
		} `json:"report"`
	}
	if err := json.Unmarshal([]byte(get("/flightrecorder")), &dump); err != nil {
		t.Fatalf("/flightrecorder does not parse: %v", err)
	}
	if dump.Reason != "on-demand" {
		t.Errorf("/flightrecorder reason = %q, want on-demand", dump.Reason)
	}
	if len(dump.Report.Flight) != 2 {
		t.Errorf("/flightrecorder cycles = %d, want 2", len(dump.Report.Flight))
	}
}

// TestTelemetryDisabledIsInert checks the nil-sink path end to end: no
// panics, no events, no metrics.
func TestTelemetryDisabledIsInert(t *testing.T) {
	runTelemetryWorkload(t, nil)
}

// TestContentionSitesAreTheRuntimesLocks: with a telemetry sink attached,
// the contention plane's lock sites are the locks the heap, the memory model
// and the collector instrument, and nothing of the sink's own.
func TestContentionSitesAreTheRuntimesLocks(t *testing.T) {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{HeapMaxBytes: 64 << 20, Telemetry: hcsgc.NewTelemetrySink()})
	defer rt.Close()
	m := rt.NewMutator(1)
	m.RequestGC()
	m.Close()

	var names []string
	for _, s := range rt.Contention.Snapshot().Sites {
		names = append(names, s.Name)
	}
	slices.Sort(names)
	want := []string{"core.cycleMu", "core.medMu", "core.mutMu", "heap.mu", "simmem.coresMu", "simmem.llcMu"}
	if !slices.Equal(names, want) {
		t.Fatalf("contention sites = %q, want %q", names, want)
	}
}

// TestSignalGaugesFollowTheLog pins the per-cycle publication against a
// live runtime: after several cycles every hcsgc_signal_value series and
// the hcsgc_mmu_ratio ladder hold the values of the last logged cycle
// record, and every Perfetto counter track carries one
// sample per cycle, equal to that cycle's logged record.
func TestSignalGaugesFollowTheLog(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes: 64 << 20,
		Knobs:        hcsgc.Knobs{Hotness: true, RelocateAllSmallPages: true, LazyRelocate: true},
		Telemetry:    sink,
	})
	defer rt.Close()
	obj := rt.Types.Register("signalpin.obj", 3, nil)
	m := rt.NewMutator(1)
	defer m.Close()

	const n, cycles = 6000, 3
	m.SetRoot(0, m.AllocRefArray(n))
	for cyc := 0; cyc < cycles; cyc++ {
		for i := cyc % 3; i < n; i += 3 {
			m.StoreRef(m.LoadRoot(0), i, m.Alloc(obj))
			m.LoadRef(m.LoadRoot(0), (i+1)%n)
		}
		m.RequestGC()
	}

	log := rt.Latency.Log()
	if len(log) != cycles {
		t.Fatalf("cycle log holds %d records, want %d", len(log), cycles)
	}
	last := log[len(log)-1]
	span := float64(last.VEnd - last.VStart)
	perK := func(v uint64) float64 { return float64(v) / span * 1000 }
	want := map[string]float64{
		"utilization":             last.Utilization,
		"max_pause_cycles":        float64(max(last.Pause1, last.Pause2, last.Pause3)),
		"stalls":                  float64(last.Stalls),
		"stall_p99_cycles":        last.StallDist.P99,
		"alloc_kb_per_kcycle":     perK(last.AllocBytes) / 1024,
		"heap_used_pct":           last.HeapUsedAfter,
		"cold_frac":               last.ColdFrac,
		"barrier_slow_per_kcycle": perK(last.Barrier.Entries),
		"stream_coverage":         last.PrefetchCoverage,
		"seg_purity":              last.SegregationPurity,
		"worker_imbalance":        last.Workers.Imbalance,
		"lock_contended_frac":     last.Contention.ContendedFrac,
		"cas_retry_frac":          last.Contention.RetryFrac,
	}
	if span == 0 || last.ColdFrac < 0 || last.PrefetchCoverage < 0 || !last.Workers.Present || !last.Contention.Present {
		t.Fatalf("cycle %d did not measure every signal: span %v, cold_frac %v, prefetch coverage %v, workers %v, contention %v",
			last.Seq, span, last.ColdFrac, last.PrefetchCoverage, last.Workers.Present, last.Contention.Present)
	}

	var b strings.Builder
	sink.Metrics().WritePrometheus(&b)
	seen := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		const prefix = `hcsgc_signal_value{signal="`
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		name, value, ok := strings.Cut(strings.TrimPrefix(line, prefix), `"} `)
		if !ok {
			t.Fatalf("malformed exposition line %q", line)
		}
		got, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		w, known := want[name]
		if !known {
			t.Errorf("unexpected signal %q", name)
			continue
		}
		seen[name] = true
		if got != w {
			t.Errorf("hcsgc_signal_value{signal=%q} = %v, want %v from cycle %d's record", name, got, w, last.Seq)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("exposition has no hcsgc_signal_value{signal=%q}", name)
		}
	}

	for _, p := range last.MMU {
		g := sink.Metrics().Gauge("hcsgc_mmu_ratio", "", "window_cycles", strconv.FormatUint(p.WindowCycles, 10))
		if g.Value() != p.MMU {
			t.Errorf("hcsgc_mmu_ratio{window_cycles=%q} = %v, want %v from cycle %d's record", strconv.FormatUint(p.WindowCycles, 10), g.Value(), p.MMU, last.Seq)
		}
	}
	if len(last.MMU) != 4 {
		t.Errorf("cycle %d logged %d MMU windows, want 4", last.Seq, len(last.MMU))
	}

	// Every counter track, by name: the record value its sample must carry.
	mmu := func(i int) func(*latency.CycleRecord) float64 {
		return func(r *latency.CycleRecord) float64 { return r.MMU[i].MMU }
	}
	tracks := map[string]func(*latency.CycleRecord) float64{
		"locality_stream_coverage":    func(r *latency.CycleRecord) float64 { return r.PrefetchCoverage },
		"locality_seg_purity":         func(r *latency.CycleRecord) float64 { return r.SegregationPurity },
		"latency_mmu_1k":              mmu(0),
		"latency_mmu_5k":              mmu(1),
		"latency_mmu_20k":             mmu(2),
		"latency_mmu_100k":            mmu(3),
		"latency_mutator_utilization": func(r *latency.CycleRecord) float64 { return r.Utilization },
		"signal_alloc_kb_per_kcycle": func(r *latency.CycleRecord) float64 {
			return float64(r.AllocBytes) / float64(r.VEnd-r.VStart) * 1000 / 1024
		},
		"signal_stall_p99_cycles":  func(r *latency.CycleRecord) float64 { return r.StallDist.P99 },
		"signal_heap_used_pct":     func(r *latency.CycleRecord) float64 { return r.HeapUsedAfter },
		"signal_cold_frac":         func(r *latency.CycleRecord) float64 { return r.ColdFrac },
		"contention_contended_acq": func(r *latency.CycleRecord) float64 { return float64(r.Contention.Contended) },
		"contention_cas_retries":   func(r *latency.CycleRecord) float64 { return float64(r.Contention.CASRetries) },
		"signal_worker_imbalance":  func(r *latency.CycleRecord) float64 { return r.Workers.Imbalance },
	}
	for _, r := range log {
		if r.VEnd == r.VStart || r.ColdFrac < 0 || r.PrefetchCoverage < 0 || !r.Contention.Present || !r.Workers.Present {
			t.Fatalf("cycle %d did not measure every track's value", r.Seq)
		}
	}
	samples := map[string]map[uint64]int{}
	for _, ev := range sink.Recorder().Snapshot() {
		if ev.Kind != telemetry.EvCounter {
			continue
		}
		name := telemetry.BuildTrace([]telemetry.Event{ev}).TraceEvents[0].Name
		of, known := tracks[name]
		if !known || ev.B == 0 || ev.B > uint64(len(log)) {
			t.Errorf("counter sample for track %q, cycle %d: no such track or logged cycle", name, ev.B)
			continue
		}
		if samples[name] == nil {
			samples[name] = map[uint64]int{}
		}
		samples[name][ev.B]++
		rec := log[ev.B-1]
		if got, want := math.Float64frombits(ev.A), of(rec); got != want {
			t.Errorf("counter track %q at cycle %d = %v, want %v from the logged record", name, ev.B, got, want)
		}
	}
	for name := range tracks {
		for _, r := range log {
			if n := samples[name][r.Seq]; n != 1 {
				t.Errorf("counter track %q has %d samples at cycle %d, want one", name, n, r.Seq)
			}
		}
	}
}
