package core

import (
	"math"

	"hcsgc/internal/faultinject"
)

// triggerDue reports whether the occupancy trigger should fire, counting
// any emergency headroom reserved by the overload controller as already
// allocated: with headroom h, the cycle starts h bytes earlier, so the
// collector never enters one with zero slack.
func (c *Collector) triggerDue() bool {
	if c.heap.UsedPercent() >= c.cfg.TriggerPercent {
		return true
	}
	hr := c.headroomBytes.Load()
	if hr == 0 {
		return false
	}
	max := c.heap.MaxBytes()
	if max == 0 {
		return false
	}
	return 100*float64(c.heap.UsedBytes()+hr)/float64(max) >= c.cfg.TriggerPercent
}

// trigger starts a cycle on a goroutine of its own: an "occupancy" cycle
// when triggerDue holds, an "emergency" one regardless. Occupancy rises
// only where a mutator takes a page, so mutators call it there (allocStall's
// success path, relocation-target refills); GC workers' refills do not, or
// a non-lazy drain would restart cycles on an idle heap. It never waits.
// The cycle's goroutine holds the token in c.triggered from this decision
// to the cycle's end, so Stop can wait for it, and skips the cycle if
// another one holds cycleMu (that one satisfies the trigger).
//
// A trigger that finds the token taken took a page after the running
// cycle's STW1 snapshot, which that cycle cannot collect: it is honoured
// when the cycle ends if a mutator is still running (an idle heap has
// nothing new to find, and the next page take triggers anyway).
func (c *Collector) trigger(reason string) {
	if reason == "occupancy" && !c.triggerDue() || c.inj.DriverSuppressed() {
		return
	}
	select {
	case c.triggered <- struct{}{}:
	default:
		c.missed.Store(true)
		return
	}
	go func() {
		if c.cycleMu.TryLock() {
			if reason != "occupancy" || c.triggerDue() {
				c.runCycle(reason)
			}
			c.cycleMu.Unlock()
		}
		<-c.triggered
		if c.missed.Swap(false) && c.sp.running() {
			c.trigger("occupancy")
		}
	}()
}

// SetEmergencyHeadroom reserves (or, with 0, releases) emergency
// allocation headroom: the occupancy trigger treats the reservation as
// already-allocated bytes. Posted by the overload controller under heap
// pressure; safe from any goroutine.
func (c *Collector) SetEmergencyHeadroom(bytes uint64) {
	c.headroomBytes.Store(bytes)
}

// EmergencyHeadroom returns the currently reserved emergency headroom.
func (c *Collector) EmergencyHeadroom() uint64 {
	return c.headroomBytes.Load()
}

// RequestEmergencyGC starts a cycle now regardless of occupancy (reason
// "emergency"). Non-blocking and safe from serving threads: unlike Collect
// it never waits on the cycle lock, and a request arriving while a cycle
// is already running is considered satisfied by it. Like an allocation, it
// must not come after the runtime is closed.
func (c *Collector) RequestEmergencyGC() {
	c.inj.At(faultinject.EmergencyTrigger, 0)
	c.trigger("emergency")
}

// Stop winds the collector down: it waits for a cycle a trigger started
// and for the relocation drain a non-lazy cycle leaves running on the GC
// workers, so Stats is exact when it returns. It reports whether the
// collector is now quiet for good: with no mutator attached nothing can
// start another cycle or touch the heap again, and the caller may release
// the heap; an attached mutator can (a page take triggers a cycle, an
// allocation stall runs one), so then it reports false.
func (c *Collector) Stop() (quiet bool) {
	// Counted before the waits: a mutator that triggered a cycle and then
	// detached has left that cycle's token for the wait to find.
	c.mutMu.Lock()
	quiet = len(c.muts) == 0
	c.mutMu.Unlock()
	c.triggered <- struct{}{}
	// Under cycleMu, like runCycle's own wait: no cycle can be adding to
	// the group meanwhile.
	c.cycleMu.Lock()
	c.relocWG.Wait()
	c.cycleMu.Unlock()
	<-c.triggered
	return quiet
}

// --- AutoTune extension (paper §4.8 future work) -------------------------

// setEffConf stores the effective cold confidence.
func (c *Collector) setEffConf(v float64) {
	c.effConf.Store(math.Float64bits(v))
}

// effectiveConf returns the cold confidence currently in force: the
// configured value, or the auto-tuned one when AutoTune is enabled.
func (c *Collector) effectiveConf() float64 {
	return math.Float64frombits(c.effConf.Load())
}

// autoTune implements the feedback loop the paper sketches as future work:
// observe the process LLC miss rate; if segregation helped (miss rate
// fell), push cold confidence towards the configured maximum for more
// aggressive segregation, otherwise back off by half.
func (c *Collector) autoTune() {
	mem := c.heap.Mem()
	if mem == nil {
		return
	}
	st := mem.Stats()
	if st.Loads == 0 {
		return
	}
	missRate := float64(st.LLCMisses) / float64(st.Loads)
	prev := c.lastTuneMiss
	c.lastTuneMiss = missRate
	if prev == 0 {
		return // first observation: no delta yet
	}
	cur := c.effectiveConf()
	max := c.cfg.Knobs.ColdConfidence
	if missRate < prev {
		// Improvement: move towards the configured aggressiveness.
		c.setEffConf(math.Min(max, cur+0.25*max))
	} else {
		c.setEffConf(cur / 2)
	}
}
