package core

import (
	"math"

	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry/latency"
)

// The collector's cycle-boundary wiring: closeCycleRecord fills the fields
// of the cycle's record the collector owns, including the sections the
// other planes hand back, before the tracker logs it. The contention plane
// may be nil (its OnCycle then returns a section with Present false); the
// tracker never is. The worker section is the collector's own.

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
// model's prefetch ratios and the worker section among them), and the
// contention plane's section. It runs before the tracker logs the record,
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
	cs.Workers = c.workerDelta()
	cs.Contention = c.ctn.OnCycle()
}

// workerDelta is the cycle's worker section: every GC worker's published
// balance counters since the last boundary, and their imbalance. A worker's
// work is its busy memory cycles when the memory model runs, otherwise its
// scanned+relocated objects. Under cycleMu.
func (c *Collector) workerDelta() latency.WorkerDelta {
	d := latency.WorkerDelta{Present: true, Workers: len(c.workers)}
	for i, w := range c.workers {
		dScan := since(&w.seen.scanned, w.pub.scanned.Load())
		dReloc := since(&w.seen.relocated, w.pub.relocated.Load())
		var dBusy uint64
		if w.core != nil {
			dBusy = since(&w.seen.busy, w.core.PublishedCycles())
		}
		d.Scanned += dScan
		d.Relocated += dReloc
		d.Steals += since(&w.seen.steals, w.pub.steals.Load())
		if dBusy > 0 {
			c.work[i] = float64(dBusy)
		} else {
			c.work[i] = float64(dScan + dReloc)
		}
	}
	d.Imbalance = imbalance(c.work)
	return d
}

// imbalance is the coefficient of variation (stddev/mean) of per-worker
// work; 0 for perfectly balanced, empty, or idle cycles.
func imbalance(work []float64) float64 {
	if len(work) == 0 {
		return 0
	}
	var sum float64
	for _, w := range work {
		sum += w
	}
	mean := sum / float64(len(work))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, w := range work {
		dev := w - mean
		ss += dev * dev
	}
	return math.Sqrt(ss/float64(len(work))) / mean
}
