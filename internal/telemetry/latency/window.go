package latency

import (
	"fmt"
	"strconv"

	"hcsgc/internal/telemetry"
)

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

// signals is every per-cycle value the tracker publishes from a logged
// record: its getter over the record, its gauge (family and label value),
// and its Perfetto counter track (name and trace category, declared here
// and nowhere else). A new per-cycle signal is one row here.
// A value whose section the record did not measure (ok false: no contention
// plane, hotness off, nothing prefetched) is not published: its gauge
// keeps its last value and its track gets no sample, so an absent plane
// never publishes zeros. stream_coverage is the cache model's
// PrefetchCoverage, under the name scrapers already know.
var signals = [...]signal{
	{signalGauge, "utilization", telemetry.NewCounterTrack("latency_mutator_utilization", "latency"), func(r *CycleRecord) (float64, bool) { return r.Utilization, true }},
	{signalGauge, "max_pause_cycles", 0, func(r *CycleRecord) (float64, bool) { return float64(max(r.Pause1, r.Pause2, r.Pause3)), true }},
	{signalGauge, "stalls", 0, func(r *CycleRecord) (float64, bool) { return float64(r.Stalls), true }},
	{signalGauge, "stall_p99_cycles", telemetry.NewCounterTrack("signal_stall_p99_cycles", "signals"), func(r *CycleRecord) (float64, bool) { return r.StallDist.P99, true }},
	{signalGauge, "alloc_kb_per_kcycle", telemetry.NewCounterTrack("signal_alloc_kb_per_kcycle", "signals"), func(r *CycleRecord) (float64, bool) { return perKCycle(r, r.AllocBytes) / 1024, true }},
	{signalGauge, "heap_used_pct", telemetry.NewCounterTrack("signal_heap_used_pct", "signals"), func(r *CycleRecord) (float64, bool) { return r.HeapUsedAfter, true }},
	{signalGauge, "cold_frac", telemetry.NewCounterTrack("signal_cold_frac", "signals"), func(r *CycleRecord) (float64, bool) { return r.ColdFrac, r.ColdFrac >= 0 }},
	{signalGauge, "barrier_slow_per_kcycle", 0, func(r *CycleRecord) (float64, bool) { return perKCycle(r, r.Barrier.Entries), true }},
	{signalGauge, "stream_coverage", telemetry.NewCounterTrack("locality_stream_coverage", "locality"), func(r *CycleRecord) (float64, bool) { return r.PrefetchCoverage, r.PrefetchCoverage >= 0 }},
	{signalGauge, "seg_purity", telemetry.NewCounterTrack("locality_seg_purity", "locality"), func(r *CycleRecord) (float64, bool) { return r.SegregationPurity, true }},
	{signalGauge, "worker_imbalance", telemetry.NewCounterTrack("signal_worker_imbalance", "signals"), func(r *CycleRecord) (float64, bool) { return r.Workers.Imbalance, r.Workers.Present }},
	{signalGauge, "lock_contended_frac", 0, func(r *CycleRecord) (float64, bool) { return r.Contention.ContendedFrac, r.Contention.Present }},
	{signalGauge, "cas_retry_frac", 0, func(r *CycleRecord) (float64, bool) { return r.Contention.RetryFrac, r.Contention.Present }},
	mmuSignal(0), mmuSignal(1), mmuSignal(2), mmuSignal(3),
	{noGauge, "", telemetry.NewCounterTrack("contention_contended_acq", "contention"), func(r *CycleRecord) (float64, bool) { return float64(r.Contention.Contended), r.Contention.Present }},
	{noGauge, "", telemetry.NewCounterTrack("contention_cas_retries", "contention"), func(r *CycleRecord) (float64, bool) { return float64(r.Contention.CASRetries), r.Contention.Present }},
}

// signal is one row of the signals table. track is the EvCounter id
// telemetry.NewCounterTrack returned, 0 for a value without a track.
type signal struct {
	gauge gaugeFamily
	label string
	track uint32
	of    func(r *CycleRecord) (v float64, ok bool)
}

// mmuSignal is rung i of the MMU ladder (DefaultMMUWindows[i]).
func mmuSignal(i int) signal {
	w := DefaultMMUWindows[i]
	return signal{mmuGauge, strconv.FormatUint(w, 10), telemetry.NewCounterTrack(fmt.Sprintf("latency_mmu_%dk", w/1000), "latency"),
		func(r *CycleRecord) (float64, bool) {
			if i >= len(r.MMU) {
				return 0, false
			}
			return r.MMU[i].MMU, true
		}}
}

// gaugeFamily names the gauge family a signal is published in.
type gaugeFamily uint8

const (
	noGauge     gaugeFamily = iota
	signalGauge             // hcsgc_signal_value{signal=label}
	mmuGauge                // hcsgc_mmu_ratio{window_cycles=label}
)

// register registers the family's series for label on reg (nil for
// noGauge).
func (g gaugeFamily) register(reg *telemetry.Registry, label string) *telemetry.Gauge {
	switch g {
	case signalGauge:
		return reg.Gauge("hcsgc_signal_value",
			"Per-cycle GC signal raw value at the latest GC cycle boundary.", "signal", label)
	case mmuGauge:
		return reg.Gauge("hcsgc_mmu_ratio",
			"Minimum mutator utilization over the labelled window, in simulated cycles.", "window_cycles", label)
	}
	return nil
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

// bindSignals registers every signal's gauge on reg (the cycle count is
// the collector's hcsgc_gc_cycles_total).
func bindSignals(reg *telemetry.Registry) (gauges [len(signals)]*telemetry.Gauge) {
	for i, s := range signals {
		gauges[i] = s.gauge.register(reg, s.label)
	}
	return gauges
}

// publishSignals sets a logged record's gauges and emits its counter-track
// samples through recd: every measured value of the signals table.
func publishSignals(rec *CycleRecord, gauges *[len(signals)]*telemetry.Gauge, recd *telemetry.Recorder) {
	for i, s := range signals {
		v, ok := s.of(rec)
		if !ok {
			continue
		}
		gauges[i].Set(v)
		if s.track != 0 {
			recd.Counter(s.track, v, rec.Seq)
		}
	}
}
