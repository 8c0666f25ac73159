package core

import "fmt"

// The collector's latency-attribution wiring: the virtual clock, and the
// hooks that feed pauses, stalls and the closed cycle record to the tracker
// every collector has (Config.Latency).
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

// VirtualCycles computes the current virtual time. The collector stamps
// its cycle records and attribution samples with it, and serving-workload
// harnesses use it as the global request clock; the cost is one walk over
// the attached mutators.
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
// timeline: the one pause total, which Runtime.Ledger, the virtual clock
// and every mutator's VirtualCycles read. It counts a pause the moment it
// ends.
func (c *Collector) PauseCycles() uint64 {
	return c.pauseTotal.Load()
}

// StallCount returns the runtime-wide allocation-stall count. Serving
// harnesses delta it across a request window to detect concurrent stalls
// (the queued-behind-stall attribution signal).
func (c *Collector) StallCount() uint64 {
	return c.stallCount.Value()
}

// recordPauseLatency advances the virtual clock past one finished STW
// pause (0-based index) and feeds it into the tracker. startV is the clock
// sampled once the world had stopped (every mutator's published ledger is
// exact then), the pause's start on the MMU timeline.
//
//hcsgc:stw-only
func (c *Collector) recordPauseLatency(i int, startV, cost uint64) {
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

// recordLatencyCycle hands the cycle's record to the tracker, which
// completes its phase/barrier/MMU fields in place and logs it, then
// auto-dumps if the heap verifier found new violations during this cycle.
// Runs under cycleMu, after closeCycleRecord.
func (c *Collector) recordLatencyCycle(cs *CycleStats) {
	c.lat.OnCycle(cs)
	if delta := since(&c.lastVerifyTotal, cs.VerifyViolations); delta > 0 {
		c.lat.AutoDump(fmt.Sprintf(
			"heap verifier reported %d new violation(s) during cycle %d", delta, cs.Seq))
	}
}
