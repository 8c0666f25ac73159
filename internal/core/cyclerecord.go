package core

import (
	"hcsgc/internal/contention"
	"hcsgc/internal/simmem"
)

// The collector's cycle-boundary wiring: closeCycleRecord fills the fields
// of the cycle's record the collector owns, including the sections the
// other planes hand back, before the tracker logs it. The locality profiler
// and the contention plane may be nil (their OnCycle then returns a section
// with Present false); the tracker never is.

// since returns how far now is past *mark and moves the watermark to now.
func since(mark *uint64, now uint64) uint64 {
	d := now - *mark
	*mark = now
	return d
}

// allocBytesTotal sums the attached mutators' allocation ledgers plus the
// closed-mutator fold.
func (c *Collector) allocBytesTotal() uint64 {
	c.mutMu.Lock()
	total := c.allocBytesClosed
	for m := range c.muts {
		total += m.allocBytes.Load()
	}
	c.mutMu.Unlock()
	return total
}

// closeCycleRecord fills what the collector knows only at the cycle's end:
// the closing clock reading, the since-last-boundary deltas (the cache
// model's prefetch ratios among them), and the locality profiler's and
// contention plane's sections. It runs before the tracker logs the record,
// so what the cycle log stores is complete. Under cycleMu.
func (c *Collector) closeCycleRecord(cs *CycleStats) {
	cs.HeapUsedAfter = c.heap.UsedPercent()
	cs.VEnd = c.VirtualCycles()
	cs.Stalls = since(&c.lastStalls, c.stallCount.Value())
	cs.VerifyRuns, cs.VerifyViolations = c.heap.Verifier().Counts()
	cs.AllocBytes = since(&c.lastAllocBytes, c.allocBytesTotal())
	if span := cs.VEnd - cs.VStart; span > 0 {
		cs.AllocPerKCycle = float64(cs.AllocBytes) / float64(span) * 1000
	}
	cs.RelocObjects = since(&c.lastRelocObjects,
		c.stats.relocObjects[0].Value()+c.stats.relocObjects[1].Value())
	cs.RelocBytes = since(&c.lastRelocBytes,
		c.stats.relocBytes[0].Value()+c.stats.relocBytes[1].Value())
	if mem := c.heap.Mem(); mem != nil {
		now := mem.Stats()
		d := simmem.CoreStats{
			PrefUseful: since(&c.lastMem.PrefUseful, now.PrefUseful),
			L2Prefills: since(&c.lastMem.L2Prefills, now.L2Prefills),
			L2Misses:   since(&c.lastMem.L2Misses, now.L2Misses),
		}
		cs.PrefetchAccuracy, cs.PrefetchCoverage = d.PrefetchAccuracy(), d.PrefetchCoverage()
	}
	cs.Locality = c.cfg.Locality.OnCycle(cs.SegregationPurity)
	ctn := c.ctn.OnCycle(c.workerTotals())
	cs.Workers, cs.Contention = ctn.Workers, ctn.Locks
}

// workerTotals snapshots every GC worker's cumulative balance counters
// for the contention plane, as of the phases the workers have finished.
func (c *Collector) workerTotals() []contention.WorkerTotals {
	totals := make([]contention.WorkerTotals, len(c.workers))
	for i, w := range c.workers {
		totals[i] = contention.WorkerTotals{
			Scanned:   w.pub.scanned.Load(),
			Relocated: w.pub.relocated.Load(),
			Steals:    w.pub.steals.Load(),
		}
		if w.core != nil {
			totals[i].BusyCycles = w.core.PublishedCycles()
		}
	}
	return totals
}
