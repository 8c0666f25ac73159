// Package signals is the per-cycle GC signal plane: a view of the latency
// tracker's cycle log. Each logged latency.CycleRecord carries the cycle's
// pauses, concurrent phases, barrier slow-path deltas, MMU ladder,
// utilization, occupancy, allocation and relocation deltas, the stall
// distribution, and the sections the other planes own (the locality
// profiler's interval stats, the contention plane's worker and lock
// deltas). The plane serves the newest of those records (Snapshot, the
// /signals payload), resolves a cycle number to its record for the tail
// attributor (Lookup; tail.go), and publishes a fixed set of scalar signals
// per cycle as hcsgc_signal_value gauges and Perfetto counter tracks. It
// stores no record and derives no series of its own: analysis belongs to
// whoever reads the log.
//
// The plane is part of a runtime, not an attachment: every collector has
// one (core.Config builds a default when handed none) and attaches its
// tracker to it. What it costs is the planes' host share in benchmark/
// (planes.host_share).
package signals

import (
	"sync/atomic"

	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Config tunes a Plane. The zero value gets usable defaults.
type Config struct {
	// History is the plane's window: how many of the cycle log's newest
	// records Snapshot and Lookup reach. The log itself keeps every cycle.
	// Default 256.
	History int
}

func (c Config) withDefaults() Config {
	if c.History <= 0 {
		c.History = 256
	}
	return c
}

// The scalar signal names (the label values of hcsgc_signal_value).
// Locality-sourced signals are only published when a profiler is attached;
// cold_frac only when hotness measured it.
const (
	SigUtilization     = "utilization"
	SigMaxPause        = "max_pause_cycles"
	SigStalls          = "stalls"
	SigStallP99        = "stall_p99_cycles"
	SigAllocRate       = "alloc_kb_per_kcycle"
	SigHeapUsed        = "heap_used_pct"
	SigColdFrac        = "cold_frac"
	SigBarrierSlowRate = "barrier_slow_per_kcycle"
	SigReuseP50        = "reuse_p50_lines"
	SigStreamCoverage  = "stream_coverage"
	SigSegPurity       = "seg_purity"
	SigWorkerImbalance = "worker_imbalance"
	SigLockContention  = "lock_contended_frac"
	SigCASRetryRate    = "cas_retry_frac"
)

// signalOrder is the full label set of hcsgc_signal_value, in registration
// order.
var signalOrder = []string{
	SigUtilization, SigMaxPause, SigStalls, SigStallP99,
	SigAllocRate, SigHeapUsed, SigColdFrac, SigBarrierSlowRate,
	SigReuseP50, SigStreamCoverage, SigSegPurity,
	SigWorkerImbalance, SigLockContention, SigCASRetryRate,
}

// outputs are the telemetry handles BindTelemetry hands the plane.
type outputs struct {
	value map[string]*telemetry.Gauge
	rec   *telemetry.Recorder
}

// Plane is the per-runtime signal plane. The collector attaches its
// tracker once and calls OnCycle at every cycle boundary; readers take
// Snapshot (the /signals payload) or Lookup (the tail attributor's cycle
// link). It holds no lock: both handles are swapped whole.
type Plane struct {
	cfg Config
	// lat is the tracker whose cycle log the plane views (nil until Attach).
	lat atomic.Pointer[latency.Tracker]
	// out is the telemetry binding (nil until BindTelemetry).
	out atomic.Pointer[outputs]
}

// New builds a plane.
func New(cfg Config) *Plane {
	return &Plane{cfg: cfg.withDefaults()}
}

// Attach makes the plane a view of t's cycle log. The collector attaches
// its tracker when it is built; attaching another re-points the plane to it
// (latest runtime wins, as with every shared plane).
func (p *Plane) Attach(t *latency.Tracker) { p.lat.Store(t) }

// log is the attached tracker's cycle log (nil before Attach).
func (p *Plane) log() []*latency.CycleRecord {
	if t := p.lat.Load(); t != nil {
		return t.Log()
	}
	return nil
}

// rawSignals extracts the scalar signal vector from a record. Signals the
// record did not measure are absent, so an absent profiler never publishes
// zeros.
func rawSignals(rec *latency.CycleRecord) map[string]float64 {
	span := rec.VEnd - rec.VStart
	perK := func(v uint64) float64 {
		if span == 0 {
			return 0
		}
		return float64(v) / float64(span) * 1000
	}
	barrierSlow := rec.Barrier.Mark + rec.Barrier.Relocate + rec.Barrier.Remap
	out := map[string]float64{
		SigUtilization:     rec.Utilization,
		SigMaxPause:        float64(max(rec.Pause1, rec.Pause2, rec.Pause3)),
		SigStalls:          float64(rec.Stalls),
		SigStallP99:        rec.StallDist.P99,
		SigAllocRate:       perK(rec.AllocBytes) / 1024,
		SigHeapUsed:        rec.HeapUsedAfter,
		SigBarrierSlowRate: perK(barrierSlow),
	}
	if rec.ColdFrac >= 0 {
		out[SigColdFrac] = rec.ColdFrac
	}
	if rec.Locality.Present {
		out[SigReuseP50] = rec.Locality.ReuseP50
		out[SigStreamCoverage] = rec.Locality.StreamCoverage
		out[SigSegPurity] = rec.Locality.SegPurity
	}
	if rec.Workers.Present {
		out[SigWorkerImbalance] = rec.Workers.Imbalance
	}
	if rec.Contention.Present {
		out[SigLockContention] = rec.Contention.ContendedFrac
		out[SigCASRetryRate] = rec.Contention.RetryFrac
	}
	return out
}

// OnCycle publishes a logged cycle record's scalar signals as gauges and
// Perfetto counter samples. The collector calls it at every cycle
// boundary, after the tracker logged rec; without a telemetry binding it
// does nothing.
func (p *Plane) OnCycle(rec *latency.CycleRecord) {
	out := p.out.Load()
	if out == nil {
		return
	}
	raw := rawSignals(rec)
	for _, name := range signalOrder {
		if v, ok := raw[name]; ok {
			out.value[name].Set(v)
		}
	}
	out.rec.Counter(telemetry.CounterSignalAllocRate, raw[SigAllocRate], rec.Seq)
	out.rec.Counter(telemetry.CounterSignalStallP99, raw[SigStallP99], rec.Seq)
	out.rec.Counter(telemetry.CounterSignalHeapUsed, raw[SigHeapUsed], rec.Seq)
	if v, ok := raw[SigColdFrac]; ok {
		out.rec.Counter(telemetry.CounterSignalColdFrac, v, rec.Seq)
	}
}

// BindTelemetry registers the hcsgc_signal_value gauge family on reg (one
// series per signal; the cycle count is the collector's
// hcsgc_gc_cycles_total) and enables Perfetto counter-track emission
// through rec. A nil reg (no sink) binds nothing; binding another plane
// re-points the series to it.
func (p *Plane) BindTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	if reg == nil {
		return
	}
	value := make(map[string]*telemetry.Gauge, len(signalOrder))
	for _, name := range signalOrder {
		value[name] = reg.Gauge("hcsgc_signal_value",
			"Unified signal-plane raw value at the latest GC cycle boundary.",
			"signal", name)
	}
	p.out.Store(&outputs{value: value, rec: rec})
}

// Snapshot is the /signals endpoint payload.
type Snapshot struct {
	// Cycles counts every cycle in the log; History is the window Records
	// covers.
	Cycles  uint64 `json:"cycles"`
	History int    `json:"history_capacity"`
	// Latest is the most recent record (nil before the first cycle).
	Latest *latency.CycleRecord `json:"latest,omitempty"`
	// Records is the window, oldest first.
	Records []*latency.CycleRecord `json:"records"`
}

// Snapshot takes the newest Config.History records of the cycle log. They
// are the log's own, shared with every other reader.
func (p *Plane) Snapshot() Snapshot {
	log := p.log()
	n := len(log)
	s := Snapshot{
		Cycles:  uint64(n),
		History: p.cfg.History,
		Records: append([]*latency.CycleRecord{}, log[max(0, n-p.cfg.History):]...),
	}
	if n > 0 {
		s.Latest = log[n-1]
	}
	return s
}

// Lookup returns the logged record of cycle seq when it is inside the
// window (the tail attributor's responsible-cycle link), else nil. Seq
// numbers a runtime's cycles densely from 1, so it is an index into the
// log. A nil plane finds nothing: a tail attributor may classify without
// one (TailAttributor.Classifier(nil)).
func (p *Plane) Lookup(seq uint64) *latency.CycleRecord {
	if p == nil || seq == 0 {
		return nil
	}
	log := p.log()
	n := uint64(len(log))
	if seq > n || seq+uint64(p.cfg.History) <= n {
		return nil
	}
	if rec := log[seq-1]; rec.Seq == seq {
		return rec
	}
	return nil
}
