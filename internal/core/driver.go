package core

import (
	"math"
	"time"

	"hcsgc/internal/faultinject"
)

// StartDriver launches the background GC trigger: a goroutine that starts
// a cycle whenever heap occupancy reaches Config.TriggerPercent. It is the
// analogue of ZGC's directed heuristics, reduced to the occupancy rule the
// paper's workloads exercise. The ticker is wall-clock by design: the
// driver races real mutator threads, and the virtual timeline only
// advances inside mutator work, so a virtual-time ticker would never fire
// while the mutators are between operations.
//
//hcsgc:wall-clock
func (c *Collector) StartDriver() {
	if c.driverStop != nil {
		return
	}
	c.driverStop = make(chan struct{})
	c.driverDone = make(chan struct{})
	go func() {
		defer close(c.driverDone)
		ticker := time.NewTicker(200 * time.Microsecond)
		defer ticker.Stop()
		for {
			select {
			case <-c.driverStop:
				return
			case <-ticker.C:
				if c.inj.DriverSuppressed() {
					continue
				}
				emergency := c.emergency.Swap(false)
				if emergency {
					c.inj.At(faultinject.EmergencyTrigger, 0)
				}
				if emergency || c.triggerDue() {
					if c.cycleMu.TryLock() {
						// Re-check under the lock: a stall-triggered cycle
						// may have just freed memory. An emergency request
						// is unconditional — but if a cycle is already
						// running (TryLock failed) it has been satisfied.
						if emergency {
							c.runCycle("emergency")
						} else if c.triggerDue() {
							c.runCycle("occupancy")
						}
						c.cycleMu.Unlock()
					}
				}
			}
		}
	}()
}

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

// SetEmergencyHeadroom reserves (or, with 0, releases) emergency
// allocation headroom: the background driver treats the reservation as
// already-allocated bytes when evaluating the occupancy trigger. Posted
// by the overload controller under heap pressure; safe from any
// goroutine.
func (c *Collector) SetEmergencyHeadroom(bytes uint64) {
	c.headroomBytes.Store(bytes)
}

// EmergencyHeadroom returns the currently reserved emergency headroom.
func (c *Collector) EmergencyHeadroom() uint64 {
	return c.headroomBytes.Load()
}

// RequestEmergencyGC asks the background driver to start a cycle at its
// next tick regardless of occupancy (reason "emergency"). Non-blocking
// and safe from serving threads: unlike Collect it never waits on the
// cycle lock, and a request arriving while a cycle is already running is
// considered satisfied by it. Requires StartDriver.
func (c *Collector) RequestEmergencyGC() {
	c.emergency.Store(true)
}

// Stop winds the collector down: it stops the background trigger (if one
// was started) and waits for everything the collector runs on goroutines
// of its own to exit — the driver, and the relocation drain that a
// non-lazy cycle leaves running on the GC workers when it returns. When
// Stop returns the workers have published, so Stats is exact.
//
// It reports whether the collector is now quiet for good: with no mutator
// attached nothing can start another cycle or touch the heap again, and
// the caller may release the heap. A mutator still attached can (an
// allocation stall runs a cycle), so then it reports false.
func (c *Collector) Stop() (quiet bool) {
	if c.driverStop != nil {
		close(c.driverStop)
		<-c.driverDone
		c.driverStop = nil
		c.driverDone = nil
	}
	// Under cycleMu, like runCycle's own wait: no cycle can be adding to
	// the group meanwhile.
	c.cycleMu.Lock()
	c.relocWG.Wait()
	c.cycleMu.Unlock()
	c.mutMu.Lock()
	quiet = len(c.muts) == 0
	c.mutMu.Unlock()
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
