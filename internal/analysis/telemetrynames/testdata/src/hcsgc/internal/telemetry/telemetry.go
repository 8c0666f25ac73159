// Package telemetry is a fixture stub of the metrics registry surface.
package telemetry

type Registry struct{}

type Counter struct{}
type Gauge struct{}

type QuantileSource interface {
	Quantile(q float64) float64
	Count() uint64
	Sum() float64
}

func (r *Registry) Counter(name, help string, labels ...string) *Counter { return nil }
func (r *Registry) Adopt(name, help string, cell *Counter, labels ...string) *Counter {
	return cell
}
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge                { return nil }
func (r *Registry) Summary(name, help string, src QuantileSource, labels ...string) {}
