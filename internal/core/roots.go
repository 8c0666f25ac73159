package core

import "hcsgc/internal/heap"

// processRootMark handles one root slot during STW1: remap through any
// previous-era forwarding, mark the object, and heal the slot with the new
// mark color. Newly grayed objects are pushed to the mark pool through
// grays.
//
//hcsgc:gc-thread
//hcsgc:stw-only
func (c *Collector) processRootMark(m *Mutator, i int, grays *markBuf) *markBuf {
	raw := m.roots[i]
	if raw.IsNull() {
		return grays
	}
	c.pauseExtra += costRootProcess
	addr, wasR := c.remapStale(c.pauseCore, raw)
	pushed, cost := c.markObject(c.pauseCore, addr, wasR)
	c.pauseExtra += cost
	if pushed {
		grays = c.pool.push(grays, addr)
	}
	m.roots[i] = heap.MakeRef(addr, c.Good())
	return grays
}

// processRootRelocate handles one root slot during STW3: relocate the
// target if it sits on an evacuation candidate, and heal the slot with the
// R color. "By the end of STW3, all roots pointing into EC are relocated"
// (§2.2).
//
//hcsgc:gc-thread
//hcsgc:stw-only
func (c *Collector) processRootRelocate(m *Mutator, i int) {
	raw := m.roots[i]
	if raw.IsNull() {
		return
	}
	c.pauseExtra += costRootProcess
	addr := raw.Addr()
	p := c.heap.PageOf(addr)
	if p == nil {
		panic("core: root points to unmapped address " + raw.String())
	}
	if p.InEC() {
		addr = c.relocateObject(c.pauseCtx, addr, p)
	}
	m.roots[i] = heap.MakeRef(addr, heap.ColorRemapped)
}
