package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. A nil *Counter
// accepts all calls as no-ops.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
//
//hcsgc:alloc-free
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
//
//hcsgc:alloc-free
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
//
//hcsgc:alloc-free
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 metric. A nil *Gauge accepts all calls as
// no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKind tags a registry family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindSummary
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// QuantileSource backs a summary family: a live quantile sketch (such as
// latency.Hist) the registry reads at scrape time instead of storing
// samples itself.
type QuantileSource interface {
	// Quantile returns the q-quantile of the recorded samples, q in [0,1].
	Quantile(q float64) float64
	// Count returns the number of recorded samples.
	Count() uint64
	// Sum returns the sum of recorded samples.
	Sum() float64
}

// series is one labelled instance within a family.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	q      QuantileSource
}

// family groups all label variants of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
	sorted []series // snapshots only: the series by label set
}

// Registry holds named metrics and renders them as Prometheus text
// exposition (version 0.0.4) or a JSON snapshot. Lookups are intended
// for instrumentation setup, not hot paths: callers resolve *Counter /
// *Gauge handles once and update those lock-free; a distribution is a
// summary over a QuantileSource its caller records into.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders label pairs ("k1", "v1", "k2", "v2", ...) into the
// Prometheus series suffix, sorted by key for a stable identity.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// get returns (registering on first use) the series with the given name,
// kind and label pairs. Caller holds r.mu.
func (r *Registry) get(name, help string, kind metricKind, labels []string) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, f.kind, kind))
	}
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
	}
	return s
}

// Counter returns (registering on first use) the counter with the given
// name and label pairs: a cell the registry owns, which therefore counts
// for as long as the registry lives. Nil-safe on a nil registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, help, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Adopt registers (or re-points) the counter series with the given name and
// label pairs to cell, a counter its caller owns and counts in, and returns
// cell. The series reports what its currently attached source holds: when a
// second runtime attaches its planes to a shared registry the series
// restarts with them, as Summary's do, so one scrape has one time base; a
// source shared across runs keeps accumulating because it does. Nil-safe on
// a nil registry.
func (r *Registry) Adopt(name, help string, cell *Counter, labels ...string) *Counter {
	if r != nil {
		r.mu.Lock()
		r.get(name, help, kindCounter, labels).c = cell
		r.mu.Unlock()
	}
	return cell
}

// Gauge returns (registering on first use) the gauge with the given name
// and label pairs. Nil-safe on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, help, kindGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Summary registers (or re-points) the summary series with the given
// name and label pairs, backed live by src: the exporters read quantiles,
// count and sum from src at scrape time. Re-registering the same series
// replaces its source (latest runtime wins, like Adopt and SetGCLog).
// Nil-safe on a nil registry.
func (r *Registry) Summary(name, help string, src QuantileSource, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.get(name, help, kindSummary, labels).q = src
	r.mu.Unlock()
}

// snapshot copies the families, sorted by name, each with its series sorted
// by label set. The copies are what a scrape renders: a series re-pointed,
// or a family that gains a series, while the scrape runs does not race it.
func (r *Registry) snapshot() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]family, 0, len(r.families))
	for _, f := range r.families {
		c := family{name: f.name, help: f.help, kind: f.kind}
		for _, s := range f.series {
			c.sorted = append(c.sorted, *s)
		}
		sort.Slice(c.sorted, func(i, j int) bool { return c.sorted[i].labels < c.sorted[j].labels })
		fams = append(fams, c)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// fmtFloat renders a float the way Prometheus expects (no exponent for
// integral values, +Inf spelled out).
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// summaryQuantiles are the quantiles every summary family exposes.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// quantLabels merges the quantile label into an existing label set.
func quantLabels(base string, q float64) string {
	entry := fmt.Sprintf("quantile=%q", fmt.Sprintf("%g", q))
	if base == "" {
		return "{" + entry + "}"
	}
	return base[:len(base)-1] + "," + entry + "}"
}

// WritePrometheus renders the registry in Prometheus text exposition
// format. Nil-safe on a nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	for _, f := range r.snapshot() {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sorted {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtFloat(s.g.Value()))
			case kindSummary:
				if s.q == nil {
					continue
				}
				for _, q := range summaryQuantiles {
					fmt.Fprintf(w, "%s%s %s\n", f.name, quantLabels(s.labels, q), fmtFloat(s.q.Quantile(q)))
				}
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, fmtFloat(s.q.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.q.Count())
			}
		}
	}
}
