// Tests of the /metrics surface as a whole: its schema (this file's golden)
// and the time base its series share.
package hcsgc_test

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"hcsgc"
	"hcsgc/internal/kvstore"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// metricsSchema reduces a Prometheus exposition to its schema: the # TYPE
// lines and every series' name and label set, values and help dropped.
func metricsSchema(exposition string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
		if strings.HasPrefix(line, "# HELP") {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// TestMetricsSchema pins the families, kinds and label sets /metrics serves
// once every plane is attached: adding, renaming or dropping a series is a
// visible edit of testdata/metrics_schema.golden (-update regenerates it).
// The run is single-threaded with the driver and the memory model off, so
// the schema does not depend on scheduling.
func TestMetricsSchema(t *testing.T) {
	sink := hcsgc.NewTelemetrySink()
	reg := sink.Metrics()
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:    64 << 20,
		Knobs:           hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1, LazyRelocate: true},
		DisableMemModel: true,
		Telemetry:       sink,
		Locality:        hcsgc.NewLocalityProfiler(hcsgc.LocalityConfig{}),
		Verifier:        hcsgc.NewHeapVerifier(),
	})
	kvstore.NewMetrics().BindTelemetry(reg)
	hcsgc.NewTailAttributor(hcsgc.TailConfig{}).BindTelemetry(reg)
	hcsgc.NewOverloadController(hcsgc.OverloadPolicy{}, rt.Signals, hcsgc.OverloadHooks{}, nil,
		hcsgc.NewOverloadStats()).BindTelemetry(reg)

	obj := rt.Types.Register("schema.obj", 3, nil)
	m := rt.NewMutator(2)
	const n = 20000
	m.SetRoot(0, m.AllocRefArray(n))
	m.SetRoot(1, m.AllocRefArray(64<<10)) // a medium-page object
	for i := 0; i < n; i++ {
		m.StoreRef(m.LoadRoot(0), i, m.Alloc(obj))
	}
	for cyc := 0; cyc < 3; cyc++ {
		for i := 0; i < n; i += 3 {
			m.LoadRef(m.LoadRoot(0), i)
		}
		m.RequestGC()
	}
	m.Close()
	rt.Close()

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	got := metricsSchema(buf.String())
	const golden = "testdata/metrics_schema.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics schema differs from %s (run with -update if intended)\n--- got\n%s", golden, got)
	}
}
