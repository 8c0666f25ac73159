// Package a seeds telemetrynames violations: malformed names and
// inconsistent family registrations.
package a

import "hcsgc/internal/telemetry"

func register(reg *telemetry.Registry, suffix string) {
	reg.Counter("gc_cycles_total", "Missing prefix.")          // want `does not match \^hcsgc_`
	reg.Gauge("hcsgc_HeapUsed", "Camel case.")                 // want `does not match \^hcsgc_`
	reg.Counter("hcsgc_pause-cycles", "Dash, not underscore.") // want `does not match \^hcsgc_`

	// The Prometheus family pattern: same name, same help, different
	// label values — legal.
	reg.Counter("hcsgc_reloc_total", "Relocations.", "who", "gc")
	reg.Counter("hcsgc_reloc_total", "Relocations.", "who", "mutator")

	// Same name, different kind: panics in Registry.get at runtime.
	reg.Gauge("hcsgc_reloc_total", "Relocations.") // want `registered as Gauge here but as Counter`

	// Adopt registers a counter series like Counter does, over the
	// caller's cell; its labels start one argument later.
	var cell telemetry.Counter
	reg.Adopt("hcsgc_reloc_total", "Relocations.", &cell, "who", "other")
	reg.Adopt("hcsgc_adopted", "No suffix needed.", &cell, "who") // want `odd number of label arguments`
	reg.Gauge("hcsgc_adopted", "No suffix needed.")               // want `registered as Gauge here but as Counter`

	// Same name, divergent help: the second string is silently dead.
	reg.Counter("hcsgc_stalls_total", "Allocation stalls.")
	reg.Counter("hcsgc_stalls_total", "Stalls while allocating.") // want `registered with different help text`

	// Odd label arguments panic in labelKey at first use.
	reg.Counter("hcsgc_odd_total", "Odd labels.", "who") // want `odd number of label arguments`

	// Summaries join the same namespace and family rules.
	reg.Summary("hcsgc_pause_cycles", "Pauses.", nil, "phase", "stw1")
	reg.Summary("hcsgc_pause_cycles", "Pauses.", nil, "phase", "stw2")
	reg.Summary("PauseCycles", "Bad name.", nil)                 // want `does not match \^hcsgc_`
	reg.Gauge("hcsgc_pause_cycles", "Pauses.")                   // want `registered as Gauge here but as Summary`
	reg.Summary("hcsgc_pause_cycles", "Pause dists.", nil)       // want `registered with different help text`
	reg.Summary("hcsgc_odd_cycles", "Odd labels.", nil, "phase") // want `odd number of label arguments`

	// Suffix conventions: _total promises a monotonic counter, and the
	// _bucket/_sum/_count suffixes belong to histogram and summary
	// derived series.
	reg.Gauge("hcsgc_live_total", "Not a counter.")         // want `_total suffix promises a monotonic counter`
	reg.Summary("hcsgc_stall_total", "Not a counter.", nil) // want `_total suffix promises a monotonic counter`
	reg.Counter("hcsgc_pause_count", "Reserved.")           // want `reserved suffix "_count"`
	reg.Gauge("hcsgc_pause_sum", "Reserved.")               // want `reserved suffix "_sum"`
	reg.Counter("hcsgc_pause_bucket", "Reserved.")          // want `reserved suffix "_bucket"`

	// Runtime-built names are skipped: not statically checkable.
	reg.Counter("hcsgc_pause_"+suffix, "Dynamic name.")

	// The KV serving families (internal/kvstore.Metrics.BindTelemetry)
	// follow the same rules: labelled counter families with shared help,
	// and a summary per traffic phase.
	reg.Counter("hcsgc_kv_requests_total", "KV requests served.", "op", "get")
	reg.Counter("hcsgc_kv_requests_total", "KV requests served.", "op", "set")
	reg.Counter("hcsgc_kv_lookups_total", "KV lookups.", "result", "hit")
	reg.Counter("hcsgc_kv_lookups_total", "KV lookups.", "result", "miss")
	reg.Counter("hcsgc_kv_sessions_retired_total", "KV sessions retired.")
	reg.Summary("hcsgc_kv_request_cycles", "KV request latency.", nil, "phase", "steady")
	reg.Summary("hcsgc_kv_request_cycles", "KV request latency.", nil, "phase", "burst")
	reg.Counter("hcsgc_kv_lookups_total", "Lookups.", "result", "hit") // want `registered with different help text`
	reg.Gauge("hcsgc_kv_request_cycles", "KV request latency.")        // want `registered as Gauge here but as Summary`
	reg.Summary("hcsgc_kv_hits_total", "Not a counter.", nil)          // want `_total suffix promises a monotonic counter`

	// The signal-plane families (internal/signals.Plane.BindTelemetry):
	// one gauge family per derived series keyed by the signal label, and
	// labelled counters for the anomaly flags — legal multi-site
	// registration with shared help across label values.
	reg.Gauge("hcsgc_signal_value", "Latest per-cycle signal value.", "signal", "utilization")
	reg.Gauge("hcsgc_signal_value", "Latest per-cycle signal value.", "signal", "heap_used_pct")
	reg.Gauge("hcsgc_signal_ewma", "Signal EWMA.", "signal", "utilization")
	reg.Gauge("hcsgc_signal_trend", "Signal trend.", "signal", "utilization")
	reg.Counter("hcsgc_signal_flags_total", "Anomaly flags raised.", "flag", "stall_spike")
	reg.Counter("hcsgc_signal_flags_total", "Anomaly flags raised.", "flag", "heap_pressure")
	reg.Counter("hcsgc_signal_cycles_total", "Cycles snapshotted.")
	reg.Counter("hcsgc_signal_value", "Latest per-cycle signal value.", "signal", "cold_frac") // want `registered as Counter here but as Gauge`
	reg.Gauge("hcsgc_signal_flags_total", "Flags.")                                            // want `registered as Gauge here but as Counter`
	reg.Gauge("hcsgc_signal_count", "Reserved.")                                               // want `reserved suffix "_count"`
	reg.Counter("hcsgc_signal_sum", "Reserved.")                                               // want `reserved suffix "_sum"`

	// The tail-attribution families (the KV serving ledger's tail
	// section): violation counters and per-cause latency summaries keyed
	// by cause.
	reg.Counter("hcsgc_tail_attributed_total", "Violations attributed.")
	reg.Counter("hcsgc_tail_violations_total", "SLO violations by cause.", "cause", "alloc-stall")
	reg.Counter("hcsgc_tail_violations_total", "SLO violations by cause.", "cause", "stw-pause")
	reg.Summary("hcsgc_tail_cause_cycles", "Violation latency by cause.", nil, "cause", "alloc-stall")
	reg.Summary("hcsgc_tail_cause_cycles", "Violation latency by cause.", nil, "cause", "service")
	reg.Counter("hcsgc_tail_violations_total", "Violations.", "cause", "service") // want `registered with different help text`
	reg.Counter("hcsgc_tail_cause_cycles", "Latency.", "cause", "service")        // want `registered as Counter here but as Summary`
	reg.Gauge("hcsgc_tail_exemplars_total", "Not a counter.")                     // want `_total suffix promises a monotonic counter`
	reg.Summary("hcsgc_tail_cause_bucket", "Reserved.", nil)                      // want `reserved suffix "_bucket"`

	// Overload-plane families, as an admission controller registers them:
	// outcome counters — sheds by priority, fast-fail causes, client
	// retries, state transitions — plus the admission-state gauge and the
	// successful-request latency summary.
	reg.Counter("hcsgc_overload_sheds_total", "Requests rejected by admission control.", "priority", "point")
	reg.Counter("hcsgc_overload_sheds_total", "Requests rejected by admission control.", "priority", "bulk")
	reg.Counter("hcsgc_overload_stale_sheds_total", "Requests shed at dequeue past their SLO budget.")
	reg.Counter("hcsgc_overload_forced_sheds_total", "Admission rejections forced by the fault injector.")
	reg.Counter("hcsgc_overload_deadline_exceeded_total", "Attempts failed fast by the allocation budget.")
	reg.Counter("hcsgc_overload_oom_failures_total", "Attempts failed by heap exhaustion.")
	reg.Counter("hcsgc_overload_retries_total", "Client retries after a shed.")
	reg.Counter("hcsgc_overload_failures_total", "Requests that exhausted their retries.")
	reg.Counter("hcsgc_overload_successes_total", "Requests completed successfully.")
	reg.Counter("hcsgc_overload_transitions_total", "Admission state transitions.")
	reg.Counter("hcsgc_overload_emergency_gc_total", "Early GC cycles forced by the controller.")
	reg.Gauge("hcsgc_overload_state", "Admission state (0 normal, 1 brownout, 2 shed).")
	reg.Summary("hcsgc_overload_success_cycles", "Successful-request latency.", nil)
	reg.Counter("hcsgc_overload_sheds_total", "Sheds.", "priority", "point") // want `registered with different help text`
	reg.Gauge("hcsgc_overload_success_cycles", "Latency.")                   // want `registered as Gauge here but as Summary`
	reg.Gauge("hcsgc_overload_sheds_total", "Not a counter.")                // want `registered as Gauge here but as Counter`
	reg.Summary("hcsgc_overload_state_count", "Reserved.", nil)              // want `reserved suffix "_count"`

	// The contention-plane families (internal/contention.Plane): per-site
	// acquisition/contended counters, CAS retry counters keyed by
	// structure, the wait summary, and the per-worker balance counters
	// with the imbalance gauge — legal multi-site registration with
	// shared kind and help across label values.
	reg.Counter("hcsgc_contention_acquisitions_total", "Lock acquisitions by site.", "site", "core.cycleMu")
	reg.Counter("hcsgc_contention_acquisitions_total", "Lock acquisitions by site.", "site", "heap.mu")
	reg.Counter("hcsgc_contention_contended_total", "Contended acquisitions by site.", "site", "core.cycleMu")
	reg.Counter("hcsgc_contention_contended_total", "Contended acquisitions by site.", "site", "simmem.llcMu")
	reg.Counter("hcsgc_contention_cas_ops_total", "CAS attempts by structure.", "structure", "heap.forwarding")
	reg.Counter("hcsgc_contention_cas_retries_total", "CAS retries by structure.", "structure", "heap.forwarding")
	reg.Summary("hcsgc_contention_wait_ns", "Contended wait time.", nil, "site", "core.cycleMu")
	reg.Counter("hcsgc_worker_scanned_total", "Objects scanned per GC worker.", "worker", "0")
	reg.Counter("hcsgc_worker_scanned_total", "Objects scanned per GC worker.", "worker", "1")
	reg.Counter("hcsgc_worker_busy_cycles_total", "Busy virtual cycles per GC worker.", "worker", "0")
	reg.Gauge("hcsgc_worker_imbalance", "Coefficient of variation of per-worker work.")

	// Gauge families keyed by two labels, and by one (the shape of the
	// scaling sweep's former export; the cases outlive it).
	reg.Gauge("hcsgc_scaling_throughput", "Sweep throughput.", "workload", "fig4", "mutators", "8")
	reg.Gauge("hcsgc_scaling_throughput", "Sweep throughput.", "workload", "kv", "mutators", "8")
	reg.Gauge("hcsgc_scaling_speedup", "Sweep speedup over one mutator.", "workload", "fig4", "mutators", "8")
	reg.Gauge("hcsgc_scaling_usl_sigma", "USL contention coefficient.", "workload", "kv")

	// Divergence across sites of the same family stays a violation.
	reg.Counter("hcsgc_contention_contended_total", "Contended locks.", "site", "heap.mu") // want `registered with different help text`
	reg.Gauge("hcsgc_contention_wait_ns", "Contended wait time.")                          // want `registered as Gauge here but as Summary`
	reg.Gauge("hcsgc_worker_scanned_total", "Not a counter.")                              // want `registered as Gauge here but as Counter`
	reg.Counter("hcsgc_scaling_usl_count", "Reserved.")                                    // want `reserved suffix "_count"`
}
