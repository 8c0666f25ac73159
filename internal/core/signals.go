package core

import (
	"hcsgc/internal/contention"
	"hcsgc/internal/signals"
	"hcsgc/internal/telemetry/latency"
)

// The collector's signal-plane wiring: one hook at the cycle boundary
// that folds the completed latency flight record, the locality profiler's
// freshly drained interval, and the heap/allocation/relocation deltas
// into one signals.CycleSignals record. One predictable branch when no
// plane is attached (c.sig == nil); the priced difference is
// BenchmarkPlaneOverhead/signals.

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

// recordSignals assembles and publishes the cycle's unified signal
// record. Runs under cycleMu, after Locality.OnCycle has drained the
// profiler's per-cycle interval and after the latency tracker completed
// the flight record.
func (c *Collector) recordSignals(cs *CycleStats, flight latency.CycleRecord) {
	// The contention plane ingests the cycle regardless of whether the
	// signal plane consumes the delta: /contention and the metric
	// families stay live even with signals opted out.
	var ctnDelta contention.CycleDelta
	if c.ctn != nil {
		ctnDelta = c.ctn.OnCycle(cs.Seq, c.workerTotals())
	}
	if c.sig == nil {
		return
	}

	allocTotal := c.allocBytesTotal()
	relocObjects := c.stats.relocObjects[0].Value() + c.stats.relocObjects[1].Value()
	relocBytes := c.stats.relocBytes[0].Value() + c.stats.relocBytes[1].Value()
	hs := signals.HeapSignals{
		UsedBeforePct:    cs.HeapUsedBefore,
		UsedAfterPct:     cs.HeapUsedAfter,
		AllocBytes:       allocTotal - c.lastAllocBytes,
		MarkedBytes:      cs.MarkedBytes,
		ECSmall:          cs.ECSmall,
		ECMedium:         cs.ECMedium,
		ECSmallLiveBytes: cs.ECSmallLiveBytes,
		PagesFreedEmpty:  cs.PagesFreedEmpty,
		RelocObjects:     relocObjects - c.lastRelocObjects,
		RelocBytes:       relocBytes - c.lastRelocBytes,
		ColdFrac:         -1,
	}
	if span := flight.VEnd - flight.VStart; span > 0 {
		hs.AllocPerKCycle = float64(hs.AllocBytes) / float64(span) * 1000
	}
	if cs.HotmapDensity >= 0 {
		hs.ColdFrac = 1 - cs.HotmapDensity
	}
	c.lastAllocBytes = allocTotal
	c.lastRelocObjects = relocObjects
	c.lastRelocBytes = relocBytes

	var ls signals.LocalitySignals
	if cr, ok := c.cfg.Locality.LastCycle(); ok {
		ls = signals.LocalitySignals{
			Present:           true,
			ReuseP50:          cr.Interval.ReuseP50,
			ReuseP90:          cr.Interval.ReuseP90,
			StreamCoverage:    cr.Interval.StreamCoverage,
			SeqStreamCoverage: cr.Interval.SeqStreamCoverage,
			PageEntropyBits:   cr.Interval.PageEntropyBits,
			SegPurity:         cr.Interval.SegPurity,
		}
	}

	var ws signals.WorkerSignals
	var cns signals.ContentionSignals
	if c.ctn != nil {
		ws = signals.WorkerSignals{
			Present:   true,
			Workers:   ctnDelta.Workers,
			Imbalance: ctnDelta.Imbalance,
			Scanned:   ctnDelta.Scanned,
			Relocated: ctnDelta.Relocated,
			Steals:    ctnDelta.Steals,
		}
		cns = signals.ContentionSignals{
			Present:       true,
			Acquisitions:  ctnDelta.Acquisitions,
			Contended:     ctnDelta.Contended,
			ContendedFrac: ctnDelta.ContendedFrac,
			CASOps:        ctnDelta.CASOps,
			CASRetries:    ctnDelta.CASRetries,
			RetryFrac:     ctnDelta.RetryFrac,
		}
	}

	c.sig.OnCycle(signals.CycleSignals{
		Seq:        cs.Seq,
		Trigger:    cs.Trigger,
		VStart:     flight.VStart,
		VEnd:       flight.VEnd,
		Flight:     flight,
		Heap:       hs,
		Locality:   ls,
		Workers:    ws,
		Contention: cns,
		StallDist:  c.lat.StallDist(),
	})
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
