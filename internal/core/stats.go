package core

import (
	"sort"
	"sync"

	"hcsgc/internal/telemetry"
)

// CycleStats records one GC cycle, feeding the paper's "GC statistics"
// plots (cycles per run, small pages relocated per cycle, heap usage).
type CycleStats struct {
	Seq     uint64
	Trigger string
	// ECSmall / ECMedium are the evacuation-candidate counts selected this
	// cycle; ECSmallLiveBytes is the live data on the small EC pages.
	ECSmall          int
	ECMedium         int
	ECSmallLiveBytes uint64
	// PagesFreedEmpty counts pages reclaimed without relocation.
	PagesFreedEmpty int
	// MarkedBytes is the live data found by this mark.
	MarkedBytes uint64
	// Pause1/2/3 are the STW pause costs in cycles.
	Pause1, Pause2, Pause3 uint64
	// HeapUsedBefore/After are occupancy percentages around the cycle.
	HeapUsedBefore, HeapUsedAfter float64
	// SegregationPurity is the live-bytes-weighted hot/cold segregation
	// purity over hot-trackable pages at mark end (-1 when not measured:
	// neither telemetry nor the locality profiler was attached).
	SegregationPurity float64
	// SegregatedPages is the number of pages the purity was computed over.
	SegregatedPages int
	// HotmapDensity is hot bytes over live bytes across hot-trackable
	// pages at mark end (-1 when not measured: neither telemetry nor the
	// signal plane was attached, or hotness is off). The signal plane
	// derives its cold_frac signal as 1 - HotmapDensity.
	HotmapDensity float64
}

// statsLog accumulates per-cycle records and global relocation counters.
type statsLog struct {
	mu     sync.Mutex
	cycles []CycleStats

	// Relocation wins as folded in by their relocators (relocCtx.fold),
	// indexed by telemetry.RelocByGC/RelocByMutator; the cells behind
	// hcsgc_reloc_objects_total / hcsgc_reloc_bytes_total.
	relocObjects [2]telemetry.Counter
	relocBytes   [2]telemetry.Counter
}

func (s *statsLog) append(cs *CycleStats) {
	s.mu.Lock()
	s.cycles = append(s.cycles, *cs)
	s.mu.Unlock()
}

func (s *statsLog) addReloc(who uint32, objects, bytes uint64) {
	s.relocObjects[who].Add(objects)
	s.relocBytes[who].Add(bytes)
}

// Stats is a snapshot of collector activity for reporting.
type Stats struct {
	Cycles              []CycleStats
	MutatorRelocObjects uint64
	MutatorRelocBytes   uint64
	GCRelocObjects      uint64
	GCRelocBytes        uint64
	TotalPauseCycles    uint64
	GCWorkerCycles      uint64
}

// Stats snapshots the collector's statistics.
func (c *Collector) Stats() Stats {
	c.stats.mu.Lock()
	cycles := make([]CycleStats, len(c.stats.cycles))
	copy(cycles, c.stats.cycles)
	c.stats.mu.Unlock()
	var pauses uint64
	for _, cs := range cycles {
		pauses += cs.Pause1 + cs.Pause2 + cs.Pause3
	}
	var gcCycles uint64
	for _, w := range c.workers {
		gcCycles += w.publishedCycles()
	}
	return Stats{
		Cycles:              cycles,
		MutatorRelocObjects: c.stats.relocObjects[telemetry.RelocByMutator].Value(),
		MutatorRelocBytes:   c.stats.relocBytes[telemetry.RelocByMutator].Value(),
		GCRelocObjects:      c.stats.relocObjects[telemetry.RelocByGC].Value(),
		GCRelocBytes:        c.stats.relocBytes[telemetry.RelocByGC].Value(),
		TotalPauseCycles:    pauses,
		GCWorkerCycles:      gcCycles,
	}
}

// MedianECSmall returns the median number of small pages selected for
// evacuation per GC cycle — the paper's "average of median small pages
// relocated per run" metric is built from this per run (§4.2 note 3).
func (s Stats) MedianECSmall() float64 {
	if len(s.Cycles) == 0 {
		return 0
	}
	counts := make([]int, len(s.Cycles))
	for i, cs := range s.Cycles {
		counts[i] = cs.ECSmall
	}
	sort.Ints(counts)
	n := len(counts)
	if n%2 == 1 {
		return float64(counts[n/2])
	}
	return float64(counts[n/2-1]+counts[n/2]) / 2
}
