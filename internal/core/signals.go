package core

import (
	"hcsgc/internal/contention"
	"hcsgc/internal/signals"
)

// The collector's cycle-boundary wiring: closeCycleRecord fills the fields
// of the cycle's record the collector owns, and recordSignals collects the
// sections the other planes own into one signals.CycleSignals around it.
// The locality profiler and the contention plane may be nil (their OnCycle
// then returns a section with Present false); the tracker and the signal
// plane never are.

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
// the closing clock reading and the since-last-boundary deltas. It runs
// before any plane sees the record, so what the cycle log stores is
// complete. Under cycleMu.
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
}

// recordSignals publishes the cycle's unified signal record: a link to the
// cycle's logged record plus the sections their owners hand back. Runs
// under cycleMu after the latency tracker completed and logged the record.
func (c *Collector) recordSignals(cs *CycleStats) {
	ls := c.cfg.Locality.OnCycle(cs.Seq, cs.SegregationPurity)
	ctn := c.ctn.OnCycle(cs.Seq, c.workerTotals())
	c.sig.OnCycle(signals.CycleSignals{CycleRecord: cs, Locality: ls,
		Workers: ctn.Workers, Contention: ctn.Locks, StallDist: c.lat.StallDist()})
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
