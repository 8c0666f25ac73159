package core

import (
	"sort"

	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// CycleStats is the one record of a GC cycle, feeding the paper's "GC
// statistics" plots (cycles per run, small pages relocated per cycle, heap
// usage). runCycle fills a new one in place and hands it to the latency
// tracker, whose cycle log stores it; Stats, the flight recorder and the
// /signals window read it from there (see latency.CycleRecord).
type CycleStats = latency.CycleRecord

// statsLog holds the global relocation counters.
type statsLog struct {
	// Relocation wins as folded in by their relocators (relocCtx.fold),
	// indexed by telemetry.RelocByGC/RelocByMutator; the cells behind
	// hcsgc_reloc_objects_total / hcsgc_reloc_bytes_total.
	relocObjects [2]telemetry.Counter
	relocBytes   [2]telemetry.Counter
}

func (s *statsLog) addReloc(who uint32, objects, bytes uint64) {
	s.relocObjects[who].Add(objects)
	s.relocBytes[who].Add(bytes)
}

// Stats is a snapshot of collector activity for reporting.
type Stats struct {
	// Cycles is the whole cycle log, oldest first.
	Cycles              []CycleStats
	MutatorRelocObjects uint64
	MutatorRelocBytes   uint64
	GCRelocObjects      uint64
	GCRelocBytes        uint64
}

// Stats snapshots the collector's statistics.
func (c *Collector) Stats() Stats {
	log := c.lat.Log()
	cycles := make([]CycleStats, len(log))
	for i, rec := range log {
		cycles[i] = *rec
	}
	return Stats{
		Cycles:              cycles,
		MutatorRelocObjects: c.stats.relocObjects[telemetry.RelocByMutator].Value(),
		MutatorRelocBytes:   c.stats.relocBytes[telemetry.RelocByMutator].Value(),
		GCRelocObjects:      c.stats.relocObjects[telemetry.RelocByGC].Value(),
		GCRelocBytes:        c.stats.relocBytes[telemetry.RelocByGC].Value(),
	}
}

// GCWorkerCycles sums the GC workers' published cycle ledgers: the
// concurrent GC work Runtime.Ledger charges, beside PauseCycles.
func (c *Collector) GCWorkerCycles() uint64 {
	var total uint64
	for _, w := range c.workers {
		total += w.publishedCycles()
	}
	return total
}

// GCMemStats sums the cache counters the GC workers' cores and the pause
// core have published: the GC-thread and pause rows of
// Runtime.MemStatsByOwner. Zero without a memory model.
func (c *Collector) GCMemStats() (workers, pauses simmem.CoreStats) {
	if c.pauseCore == nil {
		return workers, pauses
	}
	for _, w := range c.workers {
		workers.Add(w.core.PublishedStats())
	}
	return workers, c.pauseCore.PublishedStats()
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
