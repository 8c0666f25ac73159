package latency

import (
	"encoding/json"
	"io"

	"hcsgc/internal/locality"
)

// BarrierProfile counts load-barrier slow-path work by path for one cycle
// (or cumulatively in Report). Remap and hotmap-record are sub-steps that
// can occur inside a mark-path entry, so the path fields are not disjoint:
// Entries counts each slow-path entry once.
type BarrierProfile struct {
	// Mark counts mark-phase slow-path entries (mark/queue the object).
	Mark uint64 `json:"mark"`
	// Relocate counts relocate-phase entries that raced the GC for an
	// evacuation-candidate object — the work LAZYRELOCATE shifts from GC
	// threads into mutator barriers.
	Relocate uint64 `json:"relocate"`
	// Remap counts forwarding-table resolutions (mark phase) and
	// recolor-only relocate-phase entries on non-candidate pages.
	Remap uint64 `json:"remap"`
	// HotmapRecord counts successful hotness CASes (§3.1.2).
	HotmapRecord uint64 `json:"hotmap_record"`
	// Entries counts slow-path entries, whatever paths each took.
	Entries uint64 `json:"entries"`
}

// WorkerDelta is one GC cycle's worker-balance view: the cycle's share of
// the workers' scanned/relocated/stolen counts and the imbalance
// coefficient (stddev/mean of per-worker work; 0 = perfectly balanced).
// The collector computes it at every cycle's end, so a logged record's
// section is always Present.
type WorkerDelta struct {
	Present   bool    `json:"present"`
	Workers   int     `json:"workers"`
	Imbalance float64 `json:"imbalance"`
	Scanned   uint64  `json:"scanned"`
	Relocated uint64  `json:"relocated"`
	Steals    uint64  `json:"steals"`
}

// LockDelta is one GC cycle's serialization view: the cycle's lock and
// CAS-loop activity summed across sites. The contention plane computes it;
// Present is false for a collector built without that plane.
type LockDelta struct {
	Present       bool    `json:"present"`
	Acquisitions  uint64  `json:"acquisitions"`
	Contended     uint64  `json:"contended"`
	ContendedFrac float64 `json:"contended_frac"`
	CASOps        uint64  `json:"cas_ops"`
	CASRetries    uint64  `json:"cas_retries"`
	RetryFrac     float64 `json:"retry_frac"`
}

// CycleRecord is the one record of a GC cycle (core.CycleStats is this
// type). It is stored once, in the tracker's cycle log: the GC log, the
// flight recorder, the /signals window and the signal gauges read it from
// there. Durations and
// pause costs are simulated cycles. A new per-cycle fact is one field here.
//
// The collector fills every field except those the tracker's OnCycle
// completes (MarkCycles through Utilization, and StallDist) just before it
// logs the record. Nothing writes a logged record again (DESIGN.md §5 "One
// per-cycle record").
type CycleRecord struct {
	Seq     uint64 `json:"seq"`
	Trigger string `json:"trigger"`

	// VStart/VEnd bracket the cycle on the virtual timeline.
	VStart uint64 `json:"vstart_cycles"`
	VEnd   uint64 `json:"vend_cycles"`

	Pause1 uint64 `json:"pause1_cycles"`
	Pause2 uint64 `json:"pause2_cycles"`
	Pause3 uint64 `json:"pause3_cycles"`

	// EC selection outcome (the WLB decision, paper §3.1): the candidate
	// counts, the live data on the small candidates, and the pages
	// reclaimed without relocation. MarkedBytes is the live data found by
	// this mark.
	ECSmall          int    `json:"ec_small"`
	ECMedium         int    `json:"ec_medium"`
	ECSmallLiveBytes uint64 `json:"ec_small_live_bytes"`
	PagesFreedEmpty  int    `json:"pages_freed_empty"`
	MarkedBytes      uint64 `json:"marked_bytes"`

	// HeapUsedBefore/After are occupancy percentages around the cycle.
	HeapUsedBefore float64 `json:"heap_used_before"`
	HeapUsedAfter  float64 `json:"heap_used_after"`
	// SegregationPurity is the live-bytes-weighted hot/cold segregation
	// purity over hot-trackable pages at mark end (heap.SegregationStats),
	// measured every cycle; 1 when no such page holds live data, and with
	// hotness off, where every object counts as cold.
	SegregationPurity float64 `json:"segregation_purity"`
	// ColdFrac is 1 - hot bytes over live bytes across hot-trackable pages
	// at mark end: the fraction of live bytes no mutator touched this era.
	// -1 when not measured: hotness off, or no such page holds live data.
	ColdFrac float64 `json:"cold_frac"`

	// AllocBytes is the mutator allocation volume since the previous cycle
	// boundary; AllocPerKCycle normalizes it by the cycle's virtual-time
	// span (bytes per 1000 virtual cycles). RelocObjects/RelocBytes count
	// relocation (GC + mutator) since the previous boundary.
	AllocBytes     uint64  `json:"alloc_bytes"`
	AllocPerKCycle float64 `json:"alloc_bytes_per_kcycle"`
	RelocObjects   uint64  `json:"reloc_objects"`
	RelocBytes     uint64  `json:"reloc_bytes"`

	// Stalls is the number of allocation stalls since the previous cycle.
	Stalls uint64 `json:"stalls"`
	// Cumulative verifier status at cycle end (zero when detached).
	VerifyRuns       uint64 `json:"verify_runs"`
	VerifyViolations uint64 `json:"verify_violations"`

	// Concurrent-phase durations (relocate sums the per-worker drains of
	// the evacuation set this cycle started with).
	MarkCycles     uint64 `json:"mark_cycles"`
	ECSelectCycles uint64 `json:"ec_select_cycles"`
	RelocateCycles uint64 `json:"relocate_cycles"`
	// Barrier is the slow-path profile since the previous cycle.
	Barrier BarrierProfile `json:"barrier"`
	// MMU is the window ladder as of cycle end; Utilization is the
	// mutator utilization over this cycle's [VStart, VEnd] interval.
	MMU         []MMUPoint `json:"mmu"`
	Utilization float64    `json:"utilization"`

	// PrefetchAccuracy and PrefetchCoverage are the cache model's prefetch
	// ratios over the whole-process counts since the previous cycle
	// boundary (simmem.CoreStats.PrefetchAccuracy and PrefetchCoverage);
	// -1 when not measured (no memory model, or nothing prefetched).
	PrefetchAccuracy float64 `json:"prefetch_accuracy"`
	PrefetchCoverage float64 `json:"prefetch_coverage"`

	// Locality is the locality profiler's interval view of the cycle and
	// Contention the contention plane's lock deltas, each zero-valued with
	// Present false when its plane is not attached; Workers is the
	// collector's GC-worker balance.
	Locality   locality.Signals `json:"locality"`
	Workers    WorkerDelta      `json:"workers"`
	Contention LockDelta        `json:"contention"`
	// StallDist is the cumulative allocation-stall duration distribution
	// as of this cycle's end.
	StallDist Dist `json:"stall_dist"`
}

// Dist summarizes one HDR histogram for reports.
type Dist struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

func distOf(h *Hist) Dist {
	return Dist{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   float64(h.Max()),
	}
}

// Dist summarizes the histogram for reports.
func (h *Hist) Dist() Dist { return distOf(h) }

// BarrierPathReport is one slow-path family: exact hit count plus the
// sampled latency distribution.
type BarrierPathReport struct {
	Hits    uint64 `json:"hits"`
	Sampled Dist   `json:"sampled_latency_cycles"`
}

// Report is the full latency-attribution snapshot: per-pause and per-phase
// distributions, the stall distribution, per-path barrier profile, the MMU
// curve, and the flight-recorder contents. All durations are simulated
// cycles.
type Report struct {
	Pauses  map[string]Dist              `json:"pauses"`
	Phases  map[string]Dist              `json:"phases"`
	Stall   Dist                         `json:"alloc_stall"`
	Barrier map[string]BarrierPathReport `json:"barrier"`
	MMU     MMUReport                    `json:"mmu"`
	// Flight holds the newest Config.FlightRecords entries of the cycle
	// log, oldest first (the log's own records, as in Window); Cycles
	// counts every cycle ever recorded.
	Flight []*CycleRecord `json:"flight,omitempty"`
	Cycles uint64         `json:"cycles"`
	// FlightDumps counts automatic dumps emitted (verifier failure, OOM).
	FlightDumps uint64 `json:"flight_dumps"`
}

// FlightDump is the structured JSON envelope written on automatic dumps
// and by WriteFlight.
type FlightDump struct {
	Reason string  `json:"reason"`
	Report *Report `json:"report"`
}

// writeDump renders the dump to w, single-line unless indent.
func writeDump(w io.Writer, d FlightDump, indent bool) error {
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(d)
}
