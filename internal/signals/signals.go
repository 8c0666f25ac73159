// Package signals is the unified per-cycle GC signal plane: at every
// cycle boundary the collector hands over a link to the cycle's one record
// (pauses, concurrent phases, barrier slow-path deltas, MMU ladder,
// utilization, occupancy, allocation and relocation deltas — the
// latency.CycleRecord the latency tracker's cycle log stores) together with
// the sections the other planes own — the locality profiler's interval
// stats (reuse distance, stream coverage, segregation purity) and the
// contention plane's worker and lock deltas — as one immutable CycleSignals
// record. The plane keeps a bounded history of them, derives EWMA and trend
// series over a fixed set of scalar signals, and raises threshold-based
// anomaly flags.
//
// This record shape is the sensor bus of online control: an
// allocation-rate pacing trigger would read Derived (level + direction per
// signal) and Flags, and the tail attributor (tail.go) links slow requests
// back to the responsible record. Exposition: the /signals endpoint serves
// Snapshot, BindTelemetry registers the hcsgc_signal_* families, and
// Perfetto counter tracks carry the per-cycle series.
//
// The plane is part of a runtime, not an attachment: every collector has
// one (core.Config builds a default when handed none), so a cycle always has
// a CycleSignals record. What it costs is the planes' host share in
// benchmark/ (planes.host_share).
package signals

import (
	"sync"

	"hcsgc/internal/contention"
	"hcsgc/internal/locality"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Config tunes a Plane. The zero value gets usable defaults.
type Config struct {
	// History is the plane's window: how many of the newest CycleSignals
	// it retains for Snapshot and Lookup. The cycle records they link stay
	// in the latency tracker's log either way. Default 256.
	History int
}

// ewmaAlpha is the exponential-smoothing factor of the derived series.
const ewmaAlpha = 0.3

// The anomaly-flag trip points.
const (
	// minUtilization flags "low_utilization" when the cycle-interval
	// mutator utilization drops below it.
	minUtilization = 0.5
	// stallSpike flags "stall_spike" when a cycle saw at least this many
	// allocation stalls: any stall is an anomaly (PR 6 found stalls, not
	// pauses, dominate the serving tail).
	stallSpike = 1
	// maxPauseCycles flags "long_pause" when the cycle's worst STW pause
	// meets it (~4x the calibrated pause p50).
	maxPauseCycles = 200_000
	// maxHeapUsedPct flags "heap_pressure" on post-cycle occupancy: the
	// 70% trigger plus headroom, i.e. the cycle did not reclaim back below
	// the trigger region.
	maxHeapUsedPct = 85
	// minSegPurity flags "purity_drop" when segregation purity was
	// measured (>= 0) and fell below it.
	minSegPurity = 0.5
	// contentionSpike flags "contention_spike" when the cycle's lock
	// contended-acquisition fraction (contention plane attached) meets it.
	contentionSpike = 0.25
)

func (c Config) withDefaults() Config {
	if c.History <= 0 {
		c.History = 256
	}
	return c
}

// DerivedSignal is one scalar signal's derived view: the raw per-cycle
// value, its EWMA level, and the trend (EWMA delta vs the previous
// cycle; positive = rising). The controller input contract.
type DerivedSignal struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	EWMA  float64 `json:"ewma"`
	Trend float64 `json:"trend"`
}

// CycleSignals is one GC cycle's immutable unified snapshot: the cycle's
// one record (identity, pauses, phases, heap, allocation and relocation
// deltas — shared with the cycle log, not copied; its fields render at the
// top level of the JSON), the sections the locality profiler and the
// contention plane own, the cumulative allocation-stall distribution, and
// the derived series and anomaly flags computed by the plane. Once OnCycle
// stores one, neither it nor the record it links is written again.
type CycleSignals struct {
	*latency.CycleRecord

	// Locality is the profiler's per-cycle interval view; Workers and
	// Contention are the contention plane's per-cycle deltas. Each is
	// zero-valued with Present=false when its plane is not attached.
	Locality   locality.Signals       `json:"locality"`
	Workers    contention.WorkerDelta `json:"workers"`
	Contention contention.LockDelta   `json:"contention"`

	// StallDist is the cumulative allocation-stall duration distribution
	// as of this cycle end (the signal PR 6 found dominates the tail).
	StallDist latency.Dist `json:"stall_dist"`

	// Derived and Flags are filled by Plane.OnCycle.
	Derived []DerivedSignal `json:"derived"`
	Flags   []string        `json:"flags,omitempty"`
}

// The fixed derived-signal names, in report order. Locality-sourced
// signals are only emitted when a profiler is attached; cold_frac only
// when hotness measured it.
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

// DerivedOrder is the deterministic emission order of the derived
// signals (and the full label set of the hcsgc_signal_* gauge families).
var DerivedOrder = []string{
	SigUtilization, SigMaxPause, SigStalls, SigStallP99,
	SigAllocRate, SigHeapUsed, SigColdFrac, SigBarrierSlowRate,
	SigReuseP50, SigStreamCoverage, SigSegPurity,
	SigWorkerImbalance, SigLockContention, SigCASRetryRate,
}

// The anomaly flags, in report order.
const (
	FlagLowUtilization = "low_utilization"
	FlagStallSpike     = "stall_spike"
	FlagLongPause      = "long_pause"
	FlagHeapPressure   = "heap_pressure"
	FlagPurityDrop     = "purity_drop"
	// FlagContentionSpike is a controller's cue that the cycle serialized
	// on locks rather than work.
	FlagContentionSpike = "contention_spike"
)

// FlagNames is the full flag set (the label set of
// hcsgc_signal_flags_total).
var FlagNames = []string{
	FlagLowUtilization, FlagStallSpike, FlagLongPause,
	FlagHeapPressure, FlagPurityDrop, FlagContentionSpike,
}

type ewmaState struct {
	value float64
	init  bool
}

// Plane is the per-runtime signal plane. The collector calls OnCycle at
// every cycle boundary; readers take Snapshot (the /signals payload) or
// Lookup (the tail attributor's cycle link).
type Plane struct {
	cfg Config

	// mu guards the history; taken from under the collector's cycle path and
	// the tail attributor's exemplar lock, so it ranks below every caller's.
	//
	//hcsgc:lock-order 60
	mu sync.Mutex
	// history is the newest cfg.History records, oldest first: appended to
	// and trimmed from the front, never written in place, so a reader may
	// keep a slice of it taken under mu.
	history []CycleSignals
	cycles  uint64 // cycles recorded
	ewma    map[string]*ewmaState

	// Telemetry handles (nil until BindTelemetry; all nil-safe).
	valueG, ewmaG, trendG map[string]*telemetry.Gauge
	flagCtr               map[string]*telemetry.Counter
	rec                   *telemetry.Recorder
}

// New builds a plane.
func New(cfg Config) *Plane {
	cfg = cfg.withDefaults()
	return &Plane{
		cfg:     cfg,
		history: make([]CycleSignals, 0, cfg.History),
		ewma:    make(map[string]*ewmaState, len(DerivedOrder)),
	}
}

// rawSignals extracts the scalar signal vector from a record. ok=false
// signals are skipped entirely (no EWMA update, no gauge publish), so an
// absent profiler never pollutes the series with zeros.
func rawSignals(rec *CycleSignals) map[string]float64 {
	span := rec.VEnd - rec.VStart
	perK := func(v uint64) float64 {
		if span == 0 {
			return 0
		}
		return float64(v) / float64(span) * 1000
	}
	maxPause := rec.Pause1
	if rec.Pause2 > maxPause {
		maxPause = rec.Pause2
	}
	if rec.Pause3 > maxPause {
		maxPause = rec.Pause3
	}
	barrierSlow := rec.Barrier.Mark + rec.Barrier.Relocate + rec.Barrier.Remap
	out := map[string]float64{
		SigUtilization:     rec.Utilization,
		SigMaxPause:        float64(maxPause),
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

// flags evaluates the anomaly thresholds against a record's raw values.
func flags(rec *CycleSignals, raw map[string]float64) []string {
	var out []string
	if raw[SigUtilization] < minUtilization {
		out = append(out, FlagLowUtilization)
	}
	if rec.Stalls >= stallSpike {
		out = append(out, FlagStallSpike)
	}
	if uint64(raw[SigMaxPause]) >= maxPauseCycles {
		out = append(out, FlagLongPause)
	}
	if rec.HeapUsedAfter >= maxHeapUsedPct {
		out = append(out, FlagHeapPressure)
	}
	// Purity is measured at mark end even without a locality profiler
	// (telemetry computes it); fall back to the cycle record's own value so
	// the flag works in both configurations.
	purity, ok := raw[SigSegPurity]
	if !ok {
		purity = rec.SegregationPurity
	}
	if purity >= 0 && purity < minSegPurity {
		out = append(out, FlagPurityDrop)
	}
	if rec.Contention.Present && rec.Contention.ContendedFrac >= contentionSpike {
		out = append(out, FlagContentionSpike)
	}
	return out
}

// OnCycle completes rec (derived series, anomaly flags), appends it to
// the history, and publishes gauges, counters and Perfetto counter
// samples. The collector calls it at every cycle boundary, under its
// cycle lock, with a completed, logged record that nothing writes again.
func (p *Plane) OnCycle(rec CycleSignals) {
	raw := rawSignals(&rec)

	p.mu.Lock()
	rec.Derived = make([]DerivedSignal, 0, len(raw))
	for _, name := range DerivedOrder {
		v, ok := raw[name]
		if !ok {
			continue
		}
		st := p.ewma[name]
		if st == nil {
			st = &ewmaState{}
			p.ewma[name] = st
		}
		prev := st.value
		if !st.init {
			st.value = v
			st.init = true
			prev = v
		} else {
			st.value = ewmaAlpha*v + (1-ewmaAlpha)*prev
		}
		rec.Derived = append(rec.Derived, DerivedSignal{
			Name: name, Value: v, EWMA: st.value, Trend: st.value - prev,
		})
	}
	rec.Flags = flags(&rec, raw)

	p.history = append(p.history, rec)
	if len(p.history) > p.cfg.History {
		p.history = p.history[len(p.history)-p.cfg.History:]
	}
	p.cycles++
	valueG, ewmaG, trendG := p.valueG, p.ewmaG, p.trendG
	flagCtr, recd := p.flagCtr, p.rec
	p.mu.Unlock()

	for _, d := range rec.Derived {
		valueG[d.Name].Set(d.Value)
		ewmaG[d.Name].Set(d.EWMA)
		trendG[d.Name].Set(d.Trend)
	}
	for _, f := range rec.Flags {
		flagCtr[f].Inc()
	}
	recd.Counter(telemetry.CounterSignalAllocRate, raw[SigAllocRate], rec.Seq)
	recd.Counter(telemetry.CounterSignalStallP99, raw[SigStallP99], rec.Seq)
	recd.Counter(telemetry.CounterSignalHeapUsed, raw[SigHeapUsed], rec.Seq)
	if v, ok := raw[SigColdFrac]; ok {
		recd.Counter(telemetry.CounterSignalColdFrac, v, rec.Seq)
	}
}

// BindTelemetry registers the hcsgc_signal_* metric families on reg
// (value/EWMA/trend gauges per derived signal and the anomaly-flag counter
// family counting from now; the cycle count is the collector's
// hcsgc_gc_cycles_total) and enables Perfetto counter-track emission
// through rec. A nil reg (no sink) binds
// nothing; binding another plane re-points the series to it.
func (p *Plane) BindTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	if reg == nil {
		return
	}
	valueG := make(map[string]*telemetry.Gauge, len(DerivedOrder))
	ewmaG := make(map[string]*telemetry.Gauge, len(DerivedOrder))
	trendG := make(map[string]*telemetry.Gauge, len(DerivedOrder))
	for _, name := range DerivedOrder {
		valueG[name] = reg.Gauge("hcsgc_signal_value",
			"Unified signal-plane raw value at the latest GC cycle boundary.",
			"signal", name)
		ewmaG[name] = reg.Gauge("hcsgc_signal_ewma",
			"Unified signal-plane EWMA level at the latest GC cycle boundary.",
			"signal", name)
		trendG[name] = reg.Gauge("hcsgc_signal_trend",
			"Unified signal-plane EWMA trend (positive = rising) at the latest GC cycle boundary.",
			"signal", name)
	}
	flagCtr := make(map[string]*telemetry.Counter, len(FlagNames))
	for _, f := range FlagNames {
		flagCtr[f] = reg.Adopt("hcsgc_signal_flags_total",
			"Cycles on which the signal plane raised the labelled anomaly flag.",
			new(telemetry.Counter), "flag", f)
	}

	p.mu.Lock()
	p.valueG, p.ewmaG, p.trendG = valueG, ewmaG, trendG
	p.flagCtr = flagCtr
	p.rec = rec
	p.mu.Unlock()
}

// Snapshot is the /signals endpoint payload.
type Snapshot struct {
	// Cycles counts every cycle ever recorded; History retains the last
	// Config.History of them, oldest first.
	Cycles  uint64  `json:"cycles"`
	History int     `json:"history_capacity"`
	Alpha   float64 `json:"ewma_alpha"`
	// Latest is the most recent record (nil before the first cycle).
	Latest *CycleSignals `json:"latest,omitempty"`
	// Records is the retained history, oldest first.
	Records []CycleSignals `json:"records"`
}

// Snapshot takes the plane's state. Its records are the history's own,
// shared with every other reader.
func (p *Plane) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.history)
	s := Snapshot{
		Cycles:  p.cycles,
		History: p.cfg.History,
		Alpha:   ewmaAlpha,
		Records: p.history[:n:n],
	}
	if n > 0 {
		s.Latest = &p.history[n-1]
	}
	return s
}

// Latest returns the most recent record (ok=false before the first cycle).
func (p *Plane) Latest() (CycleSignals, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.history); n > 0 {
		return p.history[n-1], true
	}
	return CycleSignals{}, false
}

// Lookup finds the retained record for cycle seq (the tail attributor's
// responsible-cycle link). A nil plane finds nothing: a tail attributor
// may classify without one (TailAttributor.Classifier(nil)).
func (p *Plane) Lookup(seq uint64) (CycleSignals, bool) {
	if p == nil || seq == 0 {
		return CycleSignals{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cs := range p.history {
		if cs.Seq == seq {
			return cs, true
		}
	}
	return CycleSignals{}, false
}
