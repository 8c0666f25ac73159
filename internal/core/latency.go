package core

import (
	"fmt"

	"hcsgc/internal/telemetry/latency"
)

// The collector's latency-attribution wiring. All hooks are one
// predictable branch when no tracker is attached (c.lat == nil), matching
// the telemetry/locality/faultinject discipline; the priced difference is
// BenchmarkPlaneOverhead/latency.
//
// Time here is the virtual timeline in simulated cycles: the maximum
// attached-mutator cycle ledger plus the accumulated STW pause cost.
// Mutator ledgers only advance while mutators run and pause cost only
// accrues while they are stopped, so the two sum to a clock that advances
// through both regimes; the CAS-max keeps it monotone across concurrent
// readers.
//
// The clock reads what mutators have published (Mutator.Publish), never
// their private ledgers. Every mutator publishes before it parks, blocks or
// stalls, so the clock is exact whenever the world is stopped — pause
// starts and ends — and exact in the caller's own term when a stalling
// mutator samples it; a mutator running concurrently with the reader is
// seen up to publishEvery cycles plus one safepoint-poll interval late.

// virtualNow returns the current virtual time. Zero when neither a
// latency tracker nor a signal plane is attached (callers guard
// themselves to skip the mutator walk).
func (c *Collector) virtualNow() uint64 {
	if c.lat == nil && c.sig == nil {
		return 0
	}
	return c.VirtualCycles()
}

// VirtualCycles computes the current virtual time unconditionally (the
// latency tracker's presence only gates the cheap internal fast path, not
// the clock itself). Serving-workload harnesses use it as the global
// request clock; note the cost is one walk over the attached mutators.
func (c *Collector) VirtualCycles() uint64 {
	var maxMut uint64
	c.mutMu.Lock()
	for m := range c.muts {
		if v := m.PublishedCycles(); v > maxMut {
			maxMut = v
		}
	}
	c.mutMu.Unlock()
	now := maxMut + c.pauseTotal.Load()
	for {
		old := c.vclock.Load()
		if now <= old {
			return old
		}
		if c.vclock.CompareAndSwap(old, now) {
			return now
		}
	}
}

// PauseCycles returns the accumulated STW pause cost on the virtual
// timeline (only maintained while a latency tracker or signal plane is
// attached).
func (c *Collector) PauseCycles() uint64 {
	return c.pauseTotal.Load()
}

// StallCount returns the runtime-wide allocation-stall count. Serving
// harnesses delta it across a request window to detect concurrent stalls
// (the queued-behind-stall attribution signal).
func (c *Collector) StallCount() uint64 {
	return c.stallCount.Value()
}

// pauseStartClock samples the virtual clock at a pause start (world
// already stopped, so mutator ledgers are quiescent).
//
//hcsgc:stw-only
func (c *Collector) pauseStartClock() uint64 {
	if c.lat == nil && c.sig == nil {
		return 0
	}
	return c.virtualNow()
}

// recordPauseLatency feeds one finished STW pause (0-based index) into
// the tracker and advances the virtual clock past the pause cost.
//
//hcsgc:stw-only
func (c *Collector) recordPauseLatency(i int, startV, cost uint64) {
	if c.lat == nil && c.sig == nil {
		return
	}
	c.pauseTotal.Add(cost)
	c.lat.RecordPause(i, startV, cost)
}

// mutatorStallWeight is the MMU weight of one stalled mutator: 1/n of the
// mutators are stopped.
func (c *Collector) mutatorStallWeight() float64 {
	c.mutMu.Lock()
	n := len(c.muts)
	c.mutMu.Unlock()
	if n < 1 {
		n = 1
	}
	return 1 / float64(n)
}

// recordLatencyCycle completes the cycle's flight record and hands it to
// the tracker, then auto-dumps if the heap verifier found new violations
// during this cycle. Runs under cycleMu. The completed record (with the
// tracker's phase/barrier/MMU fields filled in) is returned for the
// signal plane; it is also built when only a signal plane is attached, so
// the CycleSignals record carries the pause and stall fields either way.
func (c *Collector) recordLatencyCycle(cs *CycleStats, vStart uint64) latency.CycleRecord {
	if c.lat == nil && c.sig == nil {
		return latency.CycleRecord{}
	}
	stalls := c.stallCount.Value()
	runs, violations := c.heap.Verifier().Counts()
	rec := latency.CycleRecord{
		Seq:               cs.Seq,
		Trigger:           cs.Trigger,
		VStart:            vStart,
		VEnd:              c.virtualNow(),
		Pause1:            cs.Pause1,
		Pause2:            cs.Pause2,
		Pause3:            cs.Pause3,
		ECSmall:           cs.ECSmall,
		ECMedium:          cs.ECMedium,
		ECSmallLiveBytes:  cs.ECSmallLiveBytes,
		PagesFreedEmpty:   cs.PagesFreedEmpty,
		MarkedBytes:       cs.MarkedBytes,
		HeapUsedBefore:    cs.HeapUsedBefore,
		HeapUsedAfter:     cs.HeapUsedAfter,
		SegregationPurity: cs.SegregationPurity,
		Stalls:            stalls - c.lastStalls,
		VerifyRuns:        runs,
		VerifyViolations:  violations,
	}
	c.lastStalls = stalls
	rec = c.lat.OnCycle(rec)
	if delta := violations - c.lastVerifyTotal; delta > 0 {
		c.lat.AutoDump(fmt.Sprintf(
			"heap verifier reported %d new violation(s) during cycle %d", delta, cs.Seq))
	}
	c.lastVerifyTotal = violations
	return rec
}
