package core

// triggerDue reports whether the occupancy trigger should fire.
func (c *Collector) triggerDue() bool {
	return c.heap.UsedPercent() >= c.cfg.TriggerPercent
}

// trigger starts an "occupancy" cycle on a goroutine of its own when
// triggerDue holds. Occupancy rises only where a mutator takes a page, so
// mutators call it there (allocStall's success path, relocation-target
// refills); GC workers' refills do not, or a non-lazy drain would restart
// cycles on an idle heap. It never waits. The cycle's goroutine holds the
// token in c.triggered from this decision to the cycle's end, so Stop can
// wait for it, and skips the cycle if another one holds cycleMu (that one
// satisfies the trigger).
//
// A trigger that finds the token taken took a page after the running
// cycle's STW1 snapshot, which that cycle cannot collect: it is honoured
// when the cycle ends if a mutator is still running (an idle heap has
// nothing new to find, and the next page take triggers anyway).
func (c *Collector) trigger() {
	if !c.triggerDue() || c.inj.DriverSuppressed() {
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
			if c.triggerDue() {
				c.runCycle("occupancy")
			}
			c.cycleMu.Unlock()
		}
		<-c.triggered
		if c.missed.Swap(false) && c.sp.running() {
			c.trigger()
		}
	}()
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

// Release hands the collector's mark buffers to the process's free list for
// the next collector to take. Call it only after Stop reported the
// collector quiet; the collector must not run again.
func (c *Collector) Release() { c.pool.release() }
