package latency

import "hcsgc/internal/telemetry"

// Window is the /signals endpoint payload: the flight window of the cycle
// log, the same records Report().Flight carries.
type Window struct {
	// Cycles counts every cycle in the log; History is the window Records
	// covers (Config.FlightRecords).
	Cycles  uint64 `json:"cycles"`
	History int    `json:"history_capacity"`
	// Latest is the most recent record (nil before the first cycle).
	Latest *CycleRecord `json:"latest,omitempty"`
	// Records is the window, oldest first.
	Records []*CycleRecord `json:"records"`
}

// Window takes the newest Config.FlightRecords records of the cycle log.
// They are the log's own, shared with every other reader.
func (t *Tracker) Window() Window {
	log := t.Log()
	w := Window{Cycles: uint64(len(log)), History: t.cfg.FlightRecords, Records: t.flight(log)}
	if w.Records == nil {
		w.Records = []*CycleRecord{}
	}
	if n := len(log); n > 0 {
		w.Latest = log[n-1]
	}
	return w
}

// flight is the flight window of log: its newest Config.FlightRecords
// records, capped so an append cannot write into the log.
func (t *Tracker) flight(log []*CycleRecord) []*CycleRecord {
	return log[max(0, len(log)-t.cfg.FlightRecords):len(log):len(log)]
}

// Lookup returns the logged record of cycle seq, or nil while that cycle
// is not logged (it has not started, or is still running). Seq numbers a
// runtime's cycles densely from 1, so it indexes the log. A nil tracker
// finds nothing: a KV classifier may run without one.
func (t *Tracker) Lookup(seq uint64) *CycleRecord {
	if t == nil || seq == 0 {
		return nil
	}
	log := t.Log()
	if seq > uint64(len(log)) {
		return nil
	}
	return log[seq-1]
}

// signals are the scalar per-cycle signals, in registration order: the
// label values of hcsgc_signal_value. A signal whose section the record
// did not measure (ok false: no locality profiler, hotness off, nothing
// prefetched) keeps its last published value, so an absent profiler never
// publishes zeros. stream_coverage is the cache model's PrefetchCoverage,
// under the name scrapers already know.
var signals = [...]struct {
	name string
	of   func(rec *CycleRecord) (v float64, ok bool)
}{
	{"utilization", func(r *CycleRecord) (float64, bool) { return r.Utilization, true }},
	{"max_pause_cycles", func(r *CycleRecord) (float64, bool) { return float64(max(r.Pause1, r.Pause2, r.Pause3)), true }},
	{"stalls", func(r *CycleRecord) (float64, bool) { return float64(r.Stalls), true }},
	{"stall_p99_cycles", func(r *CycleRecord) (float64, bool) { return r.StallDist.P99, true }},
	{"alloc_kb_per_kcycle", func(r *CycleRecord) (float64, bool) { return allocRate(r), true }},
	{"heap_used_pct", func(r *CycleRecord) (float64, bool) { return r.HeapUsedAfter, true }},
	{"cold_frac", func(r *CycleRecord) (float64, bool) { return r.ColdFrac, r.ColdFrac >= 0 }},
	{"barrier_slow_per_kcycle", func(r *CycleRecord) (float64, bool) {
		return perKCycle(r, r.Barrier.Mark+r.Barrier.Relocate+r.Barrier.Remap), true
	}},
	{"reuse_p50_lines", func(r *CycleRecord) (float64, bool) { return r.Locality.ReuseP50, r.Locality.Present }},
	{"stream_coverage", func(r *CycleRecord) (float64, bool) { return r.PrefetchCoverage, r.PrefetchCoverage >= 0 }},
	{"seg_purity", func(r *CycleRecord) (float64, bool) { return r.Locality.SegPurity, r.Locality.Present }},
	{"worker_imbalance", func(r *CycleRecord) (float64, bool) { return r.Workers.Imbalance, r.Workers.Present }},
	{"lock_contended_frac", func(r *CycleRecord) (float64, bool) { return r.Contention.ContendedFrac, r.Contention.Present }},
	{"cas_retry_frac", func(r *CycleRecord) (float64, bool) { return r.Contention.RetryFrac, r.Contention.Present }},
}

// perKCycle normalizes v by the record's virtual-time span (per 1000
// cycles; 0 over an empty span).
func perKCycle(rec *CycleRecord, v uint64) float64 {
	span := rec.VEnd - rec.VStart
	if span == 0 {
		return 0
	}
	return float64(v) / float64(span) * 1000
}

// allocRate is the cycle's allocation rate in KB per 1000 virtual cycles.
func allocRate(rec *CycleRecord) float64 { return perKCycle(rec, rec.AllocBytes) / 1024 }

// bindSignals registers the hcsgc_signal_value family on reg, one series
// per signal (the cycle count is the collector's hcsgc_gc_cycles_total).
func bindSignals(reg *telemetry.Registry) []*telemetry.Gauge {
	gauges := make([]*telemetry.Gauge, len(signals))
	for i, s := range signals {
		gauges[i] = reg.Gauge("hcsgc_signal_value",
			"Per-cycle GC signal raw value at the latest GC cycle boundary.",
			"signal", s.name)
	}
	return gauges
}

// publishSignals sets a logged record's signal gauges and emits its
// signal_* Perfetto counter samples, and the measured prefetch coverage
// as the locality_stream_coverage track, through recd.
func publishSignals(rec *CycleRecord, gauges []*telemetry.Gauge, recd *telemetry.Recorder) {
	for i, s := range signals {
		if v, ok := s.of(rec); ok {
			gauges[i].Set(v)
		}
	}
	recd.Counter(telemetry.CounterSignalAllocRate, allocRate(rec), rec.Seq)
	recd.Counter(telemetry.CounterSignalStallP99, rec.StallDist.P99, rec.Seq)
	recd.Counter(telemetry.CounterSignalHeapUsed, rec.HeapUsedAfter, rec.Seq)
	if rec.ColdFrac >= 0 {
		recd.Counter(telemetry.CounterSignalColdFrac, rec.ColdFrac, rec.Seq)
	}
	if rec.PrefetchCoverage >= 0 {
		recd.Counter(telemetry.CounterStreamCoverage, rec.PrefetchCoverage, rec.Seq)
	}
}
