package core

import (
	"sync/atomic"

	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry"
)

// gcWorker is one parallel GC thread. It participates in concurrent
// marking (with work stealing through the shared markPool) and in the
// relocation drain. Its memory traffic is charged to its own simmem core,
// so GC activity shows up in the process-wide load counters exactly as it
// does under perf in the paper.
type gcWorker struct {
	c    *Collector
	id   int
	core *simmem.Core
	ctx  *relocCtx
	// The thread-local gray stack, in mark buffers: top is pushed to and
	// popped from, local holds the full ones beneath it.
	top   []uint64
	local [][]uint64
	// scanned/steals are cumulative balance counters for the cycle
	// record's worker section (relocations are counted on ctx). Plain, like
	// the cycle ledgers (core, ctx.extra): only the goroutine running the
	// worker's current phase touches them.
	scanned uint64
	steals  uint64
	// pub is what the worker last published, at the end of a mark or drain
	// phase — all the collector's statistics ever read, so a drain still
	// running at a cycle boundary is not raced, just not yet counted.
	pub struct {
		extra, scanned, steals, relocated atomic.Uint64
	}
	// seen is pub's balance counters and the core's published cycles as of
	// the last cycle boundary (workerDelta; touched under cycleMu).
	seen struct{ scanned, relocated, steals, busy uint64 }
}

// publish makes the worker's ledgers as of now visible to other goroutines.
// Owner only; runs as a phase ends.
func (w *gcWorker) publish() {
	if w.core != nil {
		w.core.Publish()
	}
	w.ctx.fold()
	w.pub.extra.Store(w.ctx.extra)
	w.pub.scanned.Store(w.scanned)
	w.pub.steals.Store(w.steals)
	w.pub.relocated.Store(w.ctx.relocated)
}

// publishedCycles is the worker's busy time as of its last publish: memory
// cycles plus bookkeeping.
func (w *gcWorker) publishedCycles() uint64 {
	cyc := w.pub.extra.Load()
	if w.core != nil {
		cyc += w.core.PublishedCycles()
	}
	return cyc
}

// spillChunks bounds the full buffers of the local gray stack before the
// older half is spilled to the shared pool for other workers to steal.
const spillChunks = 4

func newGCWorker(c *Collector, id int) *gcWorker {
	w := &gcWorker{c: c, id: id}
	if c.heap.Mem() != nil {
		w.core = c.heap.Mem().NewCore()
	}
	w.ctx = &relocCtx{c: c, core: w.core, who: telemetry.RelocByGC}
	return w
}

// stepBudget bounds one step of GC-worker work: gray objects for
// markStep, evacuation-set pages for drainStep. Both loops run steps until
// no work is left, so its value cannot change what a phase does.
const stepBudget = 64

// markLoop drains gray objects until the collector terminates marking.
func (w *gcWorker) markLoop() {
	defer w.publish()
	for {
		chunk := w.c.pool.get()
		if chunk == nil {
			return
		}
		w.steals++
		w.top = chunk
		for w.markStep(stepBudget) {
		}
	}
}

// markStep scans at most budget gray objects from the local stack (top,
// then the full buffers beneath it) and reports whether any remain.
func (w *gcWorker) markStep(budget int) bool {
	for {
		if len(w.top) == 0 {
			w.c.pool.recycle(w.top)
			n := len(w.local)
			if n == 0 {
				w.top = nil
				return false
			}
			w.top, w.local = w.local[n-1], w.local[:n-1]
		}
		if budget == 0 {
			return true
		}
		budget--
		addr := w.top[len(w.top)-1]
		w.top = w.top[:len(w.top)-1]
		w.scanObject(addr)
	}
}

// pushGray pushes a newly marked object on the local gray stack.
func (w *gcWorker) pushGray(addr uint64) {
	if len(w.top) == cap(w.top) {
		w.local = append(w.local, w.top)
		if len(w.local) == spillChunks {
			for _, chunk := range w.local[:spillChunks/2] {
				w.c.pool.put(chunk)
			}
			w.local = w.local[:copy(w.local, w.local[spillChunks/2:])]
		}
		w.top = w.c.pool.buffer()
	}
	w.top = append(w.top, addr)
}

// scanObject traces one object's reference fields, remapping and healing
// stale slots and pushing newly marked objects.
//
//hcsgc:gc-thread
func (w *gcWorker) scanObject(addr uint64) {
	w.scanned++
	c := w.c
	header := c.heap.LoadWord(w.core, addr)
	sizeWords, typeID := objmodel.DecodeHeader(header)
	typ := c.types.Lookup(typeID)
	objmodel.RefFieldIndices(typ, sizeWords, func(field int) {
		slot := objmodel.FieldAddr(addr, field)
		raw := heap.Ref(c.heap.LoadWord(w.core, slot))
		if raw.IsNull() || raw.Color() == c.Good() {
			return
		}
		newAddr, wasR := c.remapStale(w.core, raw)
		pushed, cost := c.markObject(w.core, newAddr, wasR)
		w.ctx.extra += cost
		if pushed {
			w.pushGray(newAddr)
		}
		healed := heap.MakeRef(newAddr, c.Good())
		c.heap.CASWord(w.core, slot, uint64(raw), uint64(healed))
	})
}

// remapStale resolves a stale reference to the object's current address
// during the mark era, consulting the previous era's forwarding tables.
// It also reports whether the reference carried the R color, which means a
// mutator touched it during the previous relocation era — the GC-side
// hotness signal of §3.1.2.
func (c *Collector) remapStale(core *simmem.Core, raw heap.Ref) (addr uint64, wasR bool) {
	addr = raw.Addr()
	wasR = raw.HasColor(heap.ColorRemapped)
	p := c.heap.PageOf(addr)
	if p == nil {
		panic("core: stale ref to unmapped address " + raw.String())
	}
	if p.Forwarding() != nil {
		addr = c.remapForward(addr, p)
	}
	return addr, wasR
}

// markObject marks the object at addr live (and possibly hot), returning
// whether the caller should push it gray, plus the bookkeeping cost to
// charge to the caller's cycle ledger. Objects on pages allocated after
// STW1 are implicitly live and never pushed: any reference to them was
// created during this era and already carries the good color, as do all
// references reachable from them.
//
// Shared machinery: GC workers reach it from scanObject, mutators from
// the barrier slow path (mark-assist), hence both annotations. Alloc-free:
// this runs once per marked reference, from every worker and every
// assisting mutator, so a Go allocation here multiplies across the whole
// mark phase.
//
//hcsgc:gc-thread
//hcsgc:barrier-impl
//hcsgc:alloc-free
func (c *Collector) markObject(core *simmem.Core, addr uint64, hot bool) (pushed bool, cost uint64) {
	p := c.heap.PageOf(addr)
	if p == nil {
		panic("core: marking unmapped address")
	}
	if p.Seq > c.startSeq.Load() {
		return false, 0
	}
	header := c.heap.LoadWord(core, addr)
	size := objmodel.SizeBytes(header)
	won := p.MarkLive(addr, size)
	if hot && c.cfg.Knobs.Hotness && hotTrackable(p) {
		if p.MarkHot(addr, size) {
			cost = costHotmapCAS
		}
	}
	return won, cost
}

// hotTrackable reports whether hotness is recorded for objects on p.
// Per §3.4 the paper tracks hotness only for small pages.
func hotTrackable(p *heap.Page) bool {
	return p.Class() == heap.ClassSmall
}
