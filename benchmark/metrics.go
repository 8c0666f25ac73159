package main

// metricDecl declares one metric the benchmark emits. The tables below are
// the single source of names, units and bounds: BENCHMARK.json is generated
// from them (go test ./benchmark -run TestContract -update) and a test keeps
// the two equal. README.md gives each metric's definition.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening as a share of the median
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees, emitted by every
// workload from untraced reps. host_* run on the host clock, sim_* on the
// simulated machine's virtual clock.
//
// The bounds follow the run-to-run spreads measured on the 2-vCPU box this
// was written on (README.md, "Measured spreads"). Host time there drifts by
// 10-20 % over minutes, whatever the benchmark does, so the host clocks get
// the widest bound the contract allows. GC triggering is wall-clock driven,
// so syn-hot's cycle count, and with it its Go allocation (spread up to 8 %)
// and virtual time (up to 2.7 %), differs from rep to rep; those bounds are
// three times syn-hot's spread, because one bound has to cover all four
// workloads.
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25},
	{"host_s", "s", lower, 0.25},
	{"host_cpu_s", "s", lower, 0.25},
	{"host_alloc_mb", "MB", lower, 0.25},
	{"sim_exec_s", "s", lower, 0.10},
	{"sim_speedup_vs_zgc", "ratio", higher, 0.10},
	{"sim_goodput_frac", "fraction", higher, 0.03},
}

// perLayer are the single-layer metrics of the traced pass: first the ones
// read back from the CPU profile, the planes and Result per workload, then
// the workload-independent probes.
var perLayer = []metricDecl{
	// Host CPU share per layer, from the CPU profile; they sum to 100.
	{Name: "simmem.host_share", Unit: "%", Better: lower},
	{Name: "heap.host_share", Unit: "%", Better: lower},
	{Name: "core.host_share", Unit: "%", Better: lower},
	{Name: "kvstore.host_share", Unit: "%", Better: lower},
	{Name: "loadgen.host_share", Unit: "%", Better: lower},
	{Name: "workloads.host_share", Unit: "%", Better: lower},
	{Name: "planes.host_share", Unit: "%", Better: lower},
	{Name: "go-runtime.host_share", Unit: "%", Better: lower},
	{Name: "other.host_share", Unit: "%", Better: lower},

	// simmem: modelled cache behaviour of the whole run.
	{Name: "simmem.loads", Unit: "count", Better: lower},
	{Name: "simmem.l1_mpkl", Unit: "1/kload", Better: lower},
	{Name: "simmem.llc_mpkl", Unit: "1/kload", Better: lower},

	// core: collector work, pauses, stalls, barrier slow paths.
	{Name: "core.gc_cycles", Unit: "count", Better: lower},
	{Name: "core.gc_reloc_objs", Unit: "count", Better: lower},
	{Name: "core.mut_reloc_objs", Unit: "count", Better: lower},
	{Name: "core.ec_small_median", Unit: "count", Better: lower},
	{Name: "core.marked_mb_per_cycle", Unit: "MB", Better: lower},
	{Name: "core.pause_vcycles_p50", Unit: "cycles", Better: lower},
	{Name: "core.pause_vcycles_max", Unit: "cycles", Better: lower},
	{Name: "core.mark_vcycles_p50", Unit: "cycles", Better: lower},
	{Name: "core.relocate_vcycles_p50", Unit: "cycles", Better: lower},
	{Name: "core.stall_count", Unit: "count", Better: lower},
	{Name: "core.stall_vcycles_p99", Unit: "cycles", Better: lower},
	{Name: "core.barrier_slow.mark", Unit: "count", Better: lower},
	{Name: "core.barrier_slow.relocate", Unit: "count", Better: lower},
	{Name: "core.barrier_slow.remap", Unit: "count", Better: lower},
	{Name: "core.barrier_slow.hotmap_record", Unit: "count", Better: lower},
	{Name: "core.worker_imbalance", Unit: "ratio", Better: lower},
	{Name: "core.cyclemu_wait_ns_p99", Unit: "ns", Better: lower},

	// heap: page reclaim, occupancy, CAS-loop retries.
	{Name: "heap.pages_freed_empty", Unit: "count", Better: higher},
	{Name: "heap.used_pct_after_p50", Unit: "%", Better: lower},
	{Name: "heap.fwd_cas_retry_frac", Unit: "fraction", Better: lower},
	{Name: "heap.page_bump_cas_retry_frac", Unit: "fraction", Better: lower},

	// kvstore: serving-side view; zero on workloads that bypass the layer.
	{Name: "kvstore.hit_rate", Unit: "fraction", Better: higher},
	{Name: "kvstore.p50_steady_cycles", Unit: "cycles", Better: lower},
	{Name: "kvstore.p99_steady_cycles", Unit: "cycles", Better: lower},
	{Name: "kvstore.p999_steady_cycles", Unit: "cycles", Better: lower},
	{Name: "kvstore.p999_burst_cycles", Unit: "cycles", Better: lower},
	{Name: "kvstore.p999_shifted_cycles", Unit: "cycles", Better: lower},
	{Name: "kvstore.p9999_merged_cycles", Unit: "cycles", Better: lower},

	// workloads: cross-clock ratios and the workloads' own scores.
	{Name: "workloads.host_ns_per_load", Unit: "ns", Better: lower},
	{Name: "workloads.sim_spread_pct", Unit: "%", Better: lower},
	{Name: "workloads.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "workloads.jbb_max_jops", Unit: "1/s", Better: higher},
	{Name: "workloads.jbb_critical_jops", Unit: "1/s", Better: higher},

	// go-runtime: what the Go runtime spent on the simulator's behalf.
	{Name: "go-runtime.gc_cpu_frac", Unit: "fraction", Better: lower},
	{Name: "go-runtime.num_gc", Unit: "count", Better: lower},
	{Name: "go-runtime.mallocs_k", Unit: "count", Better: lower},
	{Name: "go-runtime.pause_total_ms", Unit: "ms", Better: lower},

	// Probes. *_ns is host time per operation; *_vcycles is the simulated
	// cost per operation and repeats exactly for a given seed.
	{Name: "simmem.cache_access_ns.hit", Unit: "ns", Better: lower},
	{Name: "simmem.cache_access_ns.miss", Unit: "ns", Better: lower},
	{Name: "simmem.core_load_ns.l1", Unit: "ns", Better: lower},
	{Name: "simmem.core_load_ns.l2", Unit: "ns", Better: lower},
	{Name: "simmem.core_load_ns.llc", Unit: "ns", Better: lower},
	{Name: "simmem.core_load_ns.dram", Unit: "ns", Better: lower},
	{Name: "simmem.core_load_ns.seq", Unit: "ns", Better: lower},
	{Name: "simmem.core_load_ns.l1-x2", Unit: "ns", Better: lower},
	{Name: "simmem.core_store_ns.l1", Unit: "ns", Better: lower},
	{Name: "simmem.core_store_ns.dram", Unit: "ns", Better: lower},
	{Name: "simmem.core_load_vcycles.l1", Unit: "cycles", Better: lower},
	{Name: "simmem.core_load_vcycles.l2", Unit: "cycles", Better: lower},
	{Name: "simmem.core_load_vcycles.llc", Unit: "cycles", Better: lower},
	{Name: "simmem.core_load_vcycles.dram", Unit: "cycles", Better: lower},
	{Name: "simmem.core_load_vcycles.seq", Unit: "cycles", Better: lower},

	{Name: "heap.load_word_ns", Unit: "ns", Better: lower},
	{Name: "heap.store_word_ns", Unit: "ns", Better: lower},
	{Name: "heap.page_of_ns", Unit: "ns", Better: lower},
	{Name: "heap.fwd_insert_ns", Unit: "ns", Better: lower},
	{Name: "heap.fwd_lookup_ns", Unit: "ns", Better: lower},
	{Name: "heap.mark_live_ns", Unit: "ns", Better: lower},
	{Name: "heap.copy_object_ns", Unit: "ns", Better: lower},
	{Name: "heap.page_alloc_free_us", Unit: "us", Better: lower},

	{Name: "core.load_ref_ns.mem", Unit: "ns", Better: lower},
	{Name: "core.load_ref_ns.nomem", Unit: "ns", Better: lower},
	{Name: "core.load_ref_ns.stale", Unit: "ns", Better: lower},
	{Name: "core.load_field_ns.mem", Unit: "ns", Better: lower},
	{Name: "core.load_field_ns.nomem", Unit: "ns", Better: lower},
	{Name: "core.store_ref_ns.mem", Unit: "ns", Better: lower},
	{Name: "core.store_ref_ns.nomem", Unit: "ns", Better: lower},
	{Name: "core.alloc_small_ns.mem", Unit: "ns", Better: lower},
	{Name: "core.alloc_small_ns.nomem", Unit: "ns", Better: lower},
	{Name: "core.alloc_array1k_ns.mem", Unit: "ns", Better: lower},
	{Name: "core.safepoint_poll_ns", Unit: "ns", Better: lower},
	{Name: "core.gc_cycle_ms.mem", Unit: "ms", Better: lower},
	{Name: "core.gc_cycle_ms.nomem", Unit: "ms", Better: lower},
	{Name: "core.gc_ns_per_live_obj.mem", Unit: "ns", Better: lower},
	{Name: "core.new_runtime_ms", Unit: "ms", Better: lower},

	{Name: "kvstore.get_hit_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.set_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.scan_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "kvstore.get_hit_vcycles", Unit: "cycles", Better: lower},
	{Name: "kvstore.set_vcycles", Unit: "cycles", Better: lower},
	{Name: "loadgen.generate_ns_per_req", Unit: "ns", Better: lower},
	{Name: "graphgen.generate_ms", Unit: "ms", Better: lower},

	{Name: "telemetry.hist_record_ns", Unit: "ns", Better: lower},
	{Name: "telemetry.recorder_record_ns", Unit: "ns", Better: lower},
	{Name: "telemetry.counter_add_ns", Unit: "ns", Better: lower},
	{Name: "contention.mutex_ns.on", Unit: "ns", Better: lower},
	{Name: "contention.mutex_ns.bare", Unit: "ns", Better: lower},
	{Name: "locality.access_ns.shift12", Unit: "ns", Better: lower},
}

// declOf returns the declaration of a metric the benchmark itself named; an
// undeclared name is a bug in the benchmark.
func declOf(decls []metricDecl, name string) metricDecl {
	for _, d := range decls {
		if d.Name == name {
			return d
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}
