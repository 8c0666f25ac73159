// Package telemetry is the live observability subsystem for the HCSGC
// runtime: a low-overhead sharded ring-buffer event recorder, a metrics
// registry with Prometheus text exposition and JSON snapshots, a Chrome
// trace_event exporter (renders in about://tracing and Perfetto), and an
// opt-in HTTP endpoint serving all three.
//
// The package mirrors what ZGC exposes via JFR events and -Xlog:gc*
// phase timings: GC phase begin/end, STW pause enter/exit, page
// lifecycle, relocation-race outcomes, and safepoint-wait latencies.
//
// Everything is nil-safe by design: a nil *Recorder, *Counter, *Gauge or
// *Histogram accepts all method calls as cheap no-ops (a single
// predictable branch), so instrumentation sites never need their own
// enabled checks.
package telemetry

// EventKind discriminates ring-buffer events.
type EventKind uint8

// The event kinds captured by the runtime.
const (
	// EvSpanBegin/EvSpanEnd bracket a named span (GC phase or pause).
	// Arg is the SpanID; A is the trace track (tid) the span belongs to.
	EvSpanBegin EventKind = iota + 1
	EvSpanEnd
	// EvPageAlloc records a committed page. Arg is the page class,
	// A the page start address, B the page size in bytes.
	EvPageAlloc
	// EvPageECSelect records a page entering the evacuation-candidate
	// set. Arg is the class, A the start address, B the live bytes.
	EvPageECSelect
	// EvPageEvacuated records the last live object leaving a page.
	// Arg is the class, A the start address.
	EvPageEvacuated
	// EvPageFreed records a page being recycled. Arg is the class,
	// A the start address, B the page size in bytes.
	EvPageFreed
	// EvRelocWin records a won relocation race. Arg is the winner
	// (RelocByGC or RelocByMutator), A the old address, B the object size.
	EvRelocWin
	// EvSafepointWait records one stop-the-world handshake. A is the
	// wall-clock wait in nanoseconds until all mutators were stopped,
	// B the SpanID of the pause that requested it.
	EvSafepointWait
	// EvCounter records a named time-series sample (rendered as a
	// Perfetto counter track). Arg is the CounterID, A the value as
	// math.Float64bits, B the GC cycle sequence it belongs to.
	EvCounter
)

// String names the event kind for exporters.
func (k EventKind) String() string {
	switch k {
	case EvSpanBegin:
		return "span_begin"
	case EvSpanEnd:
		return "span_end"
	case EvPageAlloc:
		return "page_alloc"
	case EvPageECSelect:
		return "page_ec_select"
	case EvPageEvacuated:
		return "page_evacuated"
	case EvPageFreed:
		return "page_freed"
	case EvRelocWin:
		return "reloc_win"
	case EvSafepointWait:
		return "safepoint_wait"
	case EvCounter:
		return "counter"
	default:
		return "unknown"
	}
}

// CounterID names an EvCounter series. The locality profiler and the
// latency tracker each emit one sample per counter per GC cycle.
const (
	CounterStreamCoverage uint32 = iota + 1
	CounterSegPurity
	CounterPageEntropy
	CounterReuseP50
	// The latency tracker's MMU ladder (default windows 1/5/20/100
	// kcycles; CounterMMU1k..CounterMMU100k must stay contiguous) and the
	// per-cycle mutator-utilization timeline.
	CounterMMU1k
	CounterMMU5k
	CounterMMU20k
	CounterMMU100k
	CounterUtilization
	// The latency tracker's per-cycle scalar signals (hcsgc_signal_value).
	CounterSignalAllocRate
	CounterSignalStallP99
	CounterSignalHeapUsed
	CounterSignalColdFrac
	// The contention plane's per-cycle counters.
	CounterContentionContended
	CounterContentionCASRetries
	CounterWorkerImbalance
)

// counterTracks holds each CounterID's Perfetto track name and trace
// category; index 0 is what an id outside the table renders as.
var counterTracks = [...]struct{ name, cat string }{
	0:                           {"counter", "locality"},
	CounterStreamCoverage:       {"locality_stream_coverage", "locality"},
	CounterSegPurity:            {"locality_seg_purity", "locality"},
	CounterPageEntropy:          {"locality_page_entropy_bits", "locality"},
	CounterReuseP50:             {"locality_reuse_p50_lines", "locality"},
	CounterMMU1k:                {"latency_mmu_1k", "latency"},
	CounterMMU5k:                {"latency_mmu_5k", "latency"},
	CounterMMU20k:               {"latency_mmu_20k", "latency"},
	CounterMMU100k:              {"latency_mmu_100k", "latency"},
	CounterUtilization:          {"latency_mutator_utilization", "latency"},
	CounterSignalAllocRate:      {"signal_alloc_kb_per_kcycle", "signals"},
	CounterSignalStallP99:       {"signal_stall_p99_cycles", "signals"},
	CounterSignalHeapUsed:       {"signal_heap_used_pct", "signals"},
	CounterSignalColdFrac:       {"signal_cold_frac", "signals"},
	CounterContentionContended:  {"contention_contended_acq", "contention"},
	CounterContentionCASRetries: {"contention_cas_retries", "contention"},
	CounterWorkerImbalance:      {"contention_worker_imbalance", "contention"},
}

// counterTrack returns the track name and trace category of an EvCounter
// series.
func counterTrack(id uint32) (name, cat string) {
	if id >= uint32(len(counterTracks)) {
		id = 0
	}
	return counterTracks[id].name, counterTracks[id].cat
}

// Relocation-race winners (EvRelocWin Arg).
const (
	RelocByGC      uint32 = 0
	RelocByMutator uint32 = 1
)

// SpanID identifies a named GC span for phase/pause events.
type SpanID uint32

// The spans the collector emits. Pauses and phases share the namespace
// so one trace track renders the full cycle timeline.
const (
	SpanCycle SpanID = iota + 1
	SpanMark
	SpanECSelect
	SpanRelocate
	SpanPause1
	SpanPause2
	SpanPause3
)

// String names the span as it appears in trace output.
func (s SpanID) String() string {
	switch s {
	case SpanCycle:
		return "cycle"
	case SpanMark:
		return "mark"
	case SpanECSelect:
		return "ec_select"
	case SpanRelocate:
		return "relocate"
	case SpanPause1:
		return "stw1"
	case SpanPause2:
		return "stw2"
	case SpanPause3:
		return "stw3"
	default:
		return "span"
	}
}

// Event is one fixed-size ring-buffer record. A and B are kind-specific
// payloads (see the EventKind constants).
type Event struct {
	// Seq is the recorder-wide ordering: clocks can tie within a
	// nanosecond, so exporters order begin/end pairs by Seq instead.
	Seq uint64
	// TimeNS is the wall-clock timestamp in Unix nanoseconds.
	TimeNS int64
	Kind   EventKind
	// Arg is the kind-specific small argument (span id, page class, who).
	Arg uint32
	// A and B are kind-specific payloads.
	A, B uint64
}
