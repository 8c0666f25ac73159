// End-to-end test of the locality profiler against a live runtime: runs
// GC cycles with profiler + telemetry attached, then checks the report
// structure, the exported metrics, the /locality endpoint, and the
// Perfetto counter track — the acceptance surface of the locality
// subsystem.
package hcsgc_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"hcsgc"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// runLocalityWorkload drives a mixed sequential/pointer-chasing workload
// with the profiler attached and returns the runtime's cycle log after
// two full GC cycles.
func runLocalityWorkload(t *testing.T, prof *hcsgc.LocalityProfiler, sink *hcsgc.TelemetrySink) []*latency.CycleRecord {
	t.Helper()
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    64 << 20,
		Knobs:           hcsgc.Knobs{Hotness: true, ColdPage: true, LazyRelocate: true},
		DisableMemModel: true,
		Telemetry:       sink,
		Locality:        prof,
	})
	defer rt.Close()
	obj := rt.Types.Register("locality.obj", 3, nil)
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
		// Sequential sweep (stream-friendly) plus a strided re-read.
		for i := 0; i < n; i++ {
			m.LoadRef(m.LoadRoot(0), i)
		}
		for i := 0; i < n; i += 7 {
			o := m.LoadRef(m.LoadRoot(0), i)
			m.LoadField(o, 0)
		}
		m.RequestGC()
	}
	return rt.Latency.Log()
}

func TestLocalityEndToEnd(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	prof := hcsgc.NewLocalityProfiler(hcsgc.LocalityConfig{SamplePeriodShift: 2})
	log := runLocalityWorkload(t, prof, sink)

	// --- Report: structure and value sanity.
	rep := prof.Report()
	if rep == nil {
		t.Fatal("profiler returned nil report")
	}
	cum := rep.Cumulative
	if cum.SampledAccesses == 0 {
		t.Fatal("profiler sampled no accesses")
	}
	var hist uint64
	for _, c := range cum.ReuseHist {
		hist += c
	}
	if hist == 0 && cum.ColdSamples == 0 {
		t.Error("reuse histogram empty")
	}
	if cum.SegPurity < 0 || cum.SegPurity > 1 {
		t.Errorf("segregation purity %v outside [0,1]", cum.SegPurity)
	}
	// Each cycle's interval lives in its cycle record's locality section.
	if len(log) < 2 {
		t.Errorf("cycle log has %d records, want >= 2", len(log))
	}
	for _, rec := range log {
		if !rec.Locality.Present {
			t.Errorf("cycle %d's record has no locality section", rec.Seq)
		}
	}

	// --- Registry: the locality metric families are live.
	reg := sink.Metrics()
	if v := reg.Counter("hcsgc_locality_sampled_accesses_total", "").Value(); v != cum.SampledAccesses {
		t.Errorf("sampled counter = %d, report says %d", v, cum.SampledAccesses)
	}
	if v := reg.Gauge("hcsgc_signal_value", "", "signal", "seg_purity").Value(); v < 0 || v > 1 {
		t.Errorf("seg_purity signal = %v outside [0,1]", v)
	}

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

	// --- /locality serves the JSON report.
	var served hcsgc.LocalityReport
	if err := json.Unmarshal([]byte(get("/locality")), &served); err != nil {
		t.Fatalf("/locality does not parse: %v", err)
	}
	if served.Cumulative.SampledAccesses == 0 {
		t.Error("/locality report sampled no accesses")
	}

	// --- /metrics exposes the new families.
	metrics := get("/metrics")
	for _, want := range []string{
		"hcsgc_locality_reuse_distance_lines_count",
		"hcsgc_locality_sampled_accesses_total",
		`hcsgc_signal_value{signal="stream_coverage"}`,
		`hcsgc_signal_value{signal="seg_purity"}`,
		"hcsgc_locality_page_entropy_bits",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// --- /trace carries the locality counter tracks (Ph "C"). The run has
	// no memory model, so the prefetch coverage's locality_stream_coverage
	// track stays empty (TestSignalGaugesFollowTheLog pins it).
	var tf telemetry.TraceFile
	if err := json.Unmarshal([]byte(get("/trace")), &tf); err != nil {
		t.Fatalf("/trace does not parse: %v", err)
	}
	counters := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "C" {
			counters[ev.Name]++
		}
	}
	for _, name := range []string{"locality_seg_purity", "locality_page_entropy_bits"} {
		if counters[name] == 0 {
			t.Errorf("trace has no %q counter events (got %v)", name, counters)
		}
	}
}

// TestLocalityDisabledIsInert checks the nil-profiler path end to end.
func TestLocalityDisabledIsInert(t *testing.T) {
	runLocalityWorkload(t, nil, nil)
}

// TestLocalityWithoutTelemetry checks the profiler works standalone: no
// sink attached, report still accumulates.
func TestLocalityWithoutTelemetry(t *testing.T) {
	prof := hcsgc.NewLocalityProfiler(hcsgc.LocalityConfig{SamplePeriodShift: 3})
	runLocalityWorkload(t, prof, nil)
	rep := prof.Report()
	if rep == nil || rep.Cumulative.SampledAccesses == 0 {
		t.Fatalf("standalone profiler report: %+v", rep)
	}
}
