package telemetry

import (
	"strings"
	"testing"
)

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var r *Registry
	c.Add(5)
	c.Inc()
	g.Set(1.5)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil metrics must read as zero")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil {
		t.Error("nil registry must hand out nil metrics")
	}
	r.WritePrometheus(&strings.Builder{})
}

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hcsgc_test_total", "help", "who", "gc")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if again := reg.Counter("hcsgc_test_total", "help", "who", "gc"); again != c {
		t.Fatal("same name+labels must return the same counter")
	}
	g := reg.Gauge("hcsgc_test_gauge", "help")
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hcsgc_objs_total", "Objects.", "who", "mutator").Add(7)
	reg.Counter("hcsgc_objs_total", "Objects.", "who", "gc").Add(2)
	reg.Gauge("hcsgc_density", "Density.").Set(0.5)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE hcsgc_objs_total counter",
		`hcsgc_objs_total{who="gc"} 2`,
		`hcsgc_objs_total{who="mutator"} 7`,
		"# TYPE hcsgc_density gauge",
		"hcsgc_density 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Each family header must appear exactly once even with many series.
	if strings.Count(out, "# TYPE hcsgc_objs_total") != 1 {
		t.Error("family TYPE header duplicated")
	}
}

// fakeQuantiles is a canned QuantileSource for exposition tests.
type fakeQuantiles struct {
	n   uint64
	sum float64
	q   map[float64]float64
}

func (f fakeQuantiles) Count() uint64              { return f.n }
func (f fakeQuantiles) Sum() float64               { return f.sum }
func (f fakeQuantiles) Quantile(q float64) float64 { return f.q[q] }

func TestWritePrometheusSummary(t *testing.T) {
	reg := NewRegistry()
	src := fakeQuantiles{n: 10, sum: 1234, q: map[float64]float64{
		0.5: 5, 0.9: 9, 0.99: 42, 0.999: 99,
	}}
	reg.Summary("hcsgc_pausex_cycles", "Pause summary.", src, "phase", "stw1")
	reg.Summary("hcsgc_stallx_cycles", "Stall summary.", src)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE hcsgc_pausex_cycles summary",
		`hcsgc_pausex_cycles{phase="stw1",quantile="0.5"} 5`,
		`hcsgc_pausex_cycles{phase="stw1",quantile="0.99"} 42`,
		`hcsgc_pausex_cycles{phase="stw1",quantile="0.999"} 99`,
		`hcsgc_pausex_cycles_sum{phase="stw1"} 1234`,
		`hcsgc_pausex_cycles_count{phase="stw1"} 10`,
		"# TYPE hcsgc_stallx_cycles summary",
		`hcsgc_stallx_cycles{quantile="0.9"} 9`,
		"hcsgc_stallx_cycles_count 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryReRegisterAndJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Summary("hcsgc_sumx", "help", fakeQuantiles{n: 1, q: map[float64]float64{0.5: 1}})
	// Re-registration re-points the series at the latest source.
	reg.Summary("hcsgc_sumx", "help", fakeQuantiles{n: 2, sum: 7, q: map[float64]float64{0.5: 3}})

	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{`hcsgc_sumx{quantile="0.5"} 3`, "hcsgc_sumx_sum 7", "hcsgc_sumx_count 2"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("latest source must win, exposition missing %q:\n%s", want, b.String())
		}
	}
}
