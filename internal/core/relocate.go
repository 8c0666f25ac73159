package core

import (
	"fmt"

	"hcsgc/internal/faultinject"
	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// relocCtx is a relocation execution context: who is copying (a mutator, a
// GC worker, or the STW3 pause), which simmem core the traffic is charged
// to, and the destination pages.
//
// The destination policy is the heart of HCSGC (§3.2–3.3):
//
//   - Mutators relocate into their own TLAB, so objects land in the order
//     the mutator accesses them — the prefetch-friendly layout.
//   - GC workers relocate into a thread-local "hot page", or when COLDPAGE
//     is enabled into separate hot/cold pages, segregating objects that
//     were not touched since the last GC cycle.
type relocCtx struct {
	c    *Collector
	core *simmem.Core
	// who is telemetry.RelocByGC (workers, the pause) or RelocByMutator.
	who uint32
	// hotPage/coldPage are the small-page destinations. For a mutator
	// context these are unused: the owning mutator's TLAB is used instead
	// (see Mutator.relocTargetSmall).
	hotPage  *heap.Page
	coldPage *heap.Page
	// mutator is set for mutator contexts (TLAB destination).
	mutator *Mutator
	// The owner's plain tallies; the owner (mutator, GC worker, pause)
	// hands them on where it publishes its other ledgers.
	//
	// extra accumulates non-memory cycle costs charged to this context.
	extra uint64
	// relocated counts forwarding races this context won, for the
	// contention plane's worker-balance accounting.
	relocated uint64
	// Since the last fold: page bumps this context's owner completed
	// (allocations and relocation copies), forwarding-table inserts it
	// completed, won or lost, and the objects and bytes of the races it won.
	pageBumps  uint64
	fwdOps     uint64
	wonObjects uint64
	wonBytes   uint64
}

// fold hands the context's tallies on to the shared counters: page bumps and
// forwarding inserts to the contention plane's heap.pageBump and
// heap.forwardTable sites, relocation wins to the collector's statistics
// (which /metrics serves). Owner only. Allocating and relocating threads
// would otherwise all bump the same few counters once per object; folding
// where the owner publishes keeps those counters exact wherever the ledgers
// are (under STW, after a worker phase, after Close).
func (ctx *relocCtx) fold() {
	if ctx.pageBumps != 0 {
		ctx.c.heap.CountPageBumps(ctx.pageBumps)
		ctx.pageBumps = 0
	}
	if ctx.fwdOps != 0 {
		ctx.c.heap.CountForwardOps(ctx.fwdOps)
		ctx.fwdOps = 0
	}
	if ctx.wonObjects != 0 {
		ctx.c.stats.addReloc(ctx.who, ctx.wonObjects, ctx.wonBytes)
		ctx.wonObjects, ctx.wonBytes = 0, 0
	}
}

// relocTargetSmall returns a destination address for a small object of the
// given size, allocating fresh target pages as needed. Relocation must not
// fail, so target pages bypass the heap budget (relocation headroom).
func (ctx *relocCtx) relocTargetSmall(size uint64, hot bool) uint64 {
	if ctx.mutator != nil {
		return ctx.mutator.relocTargetSmall(size)
	}
	pagep := &ctx.hotPage
	if !hot && ctx.c.cfg.Knobs.ColdPage {
		pagep = &ctx.coldPage
	}
	if *pagep != nil {
		if addr := (*pagep).AllocRaw(size); addr != 0 {
			return addr
		}
	}
	p, err := ctx.c.heap.AllocPageForced(heap.ClassSmall)
	if err != nil {
		panic(fmt.Sprintf("core: cannot allocate relocation target: %v", err))
	}
	*pagep = p
	addr := p.AllocRaw(size)
	if addr == 0 {
		panic("core: fresh relocation target page cannot satisfy small object")
	}
	return addr
}

// undoTarget gives back a relocation copy that lost the forwarding race.
func (ctx *relocCtx) undoTarget(addr, size uint64) {
	p := ctx.c.heap.PageOf(addr)
	if p != nil {
		p.UndoAlloc(addr, size)
	}
}

// relocateObject ensures the live object at addr on EC page p has been
// relocated and returns its new address. This is the shared routine behind
// the mutator load-barrier slow path, the GC drain, and STW3 root
// processing; the forwarding-table CAS decides the race (§2.2 RE).
//
//hcsgc:gc-thread
//hcsgc:barrier-impl
func (c *Collector) relocateObject(ctx *relocCtx, addr uint64, p *heap.Page) uint64 {
	fwd := p.Forwarding()
	if fwd == nil {
		panic(fmt.Sprintf("core: relocateObject on page without forwarding: %v", p))
	}
	off := p.WordIndex(addr)
	if dst := fwd.Lookup(off); dst != 0 {
		return dst
	}
	header := c.heap.LoadWord(ctx.core, addr)
	size := objmodel.SizeBytes(header)

	var dst uint64
	if size <= heap.SmallObjectMax {
		hot := !c.cfg.Knobs.Hotness || p.IsHot(addr)
		dst = ctx.relocTargetSmall(size, hot)
	} else {
		dst = c.allocMediumForced(size)
	}
	ctx.pageBumps++
	c.heap.CopyObject(ctx.core, addr, dst, size)
	// The copy is done but not yet published: this is the racy window where
	// another actor's Insert can win and strand this copy. The injection
	// point widens it under chaos and lets tests force a loss via a hook.
	c.inj.At(faultinject.RelocInsert, addr)
	final, won := fwd.Insert(off, dst)
	ctx.fwdOps++
	ctx.extra += costRelocSetup
	if !won {
		ctx.undoTarget(dst, size)
		return final
	}
	ctx.relocated++
	ctx.wonObjects++
	ctx.wonBytes += size
	// Relocation wins arrive at millions per second; unsampled they would
	// evict every phase span from the trace ring. The tallies above stay
	// exact; the trace gets 1 instant in every relocSampleMask+1 wins.
	if c.tm.enabled && c.relocSample.Add(1)&relocSampleMask == 1 {
		c.tm.rec.Record(telemetry.EvRelocWin, ctx.who, addr, size)
	}
	if p.ObjectRelocated() {
		// Last live object gone: recycle the page now; its forwarding
		// table survives until next mark end.
		c.tm.rec.Record(telemetry.EvPageEvacuated, uint32(p.Class()), p.Start(), 0)
		c.heap.FreePage(p)
	}
	return final
}

// remapForward returns the current address of an object that may live on a
// previously evacuated page (mark-era remapping). During marking every EC
// page of the previous era is fully relocated, so a live object's
// forwarding entry always exists. Barrier fast path: alloc-free.
//
//hcsgc:alloc-free
func (c *Collector) remapForward(addr uint64, p *heap.Page) uint64 {
	fwd := p.Forwarding()
	if fwd == nil {
		return addr
	}
	if dst := fwd.Lookup(p.WordIndex(addr)); dst != 0 {
		return dst
	}
	return addr
}

// allocMediumForced bump-allocates from the shared medium page, bypassing
// the heap budget (relocation path).
func (c *Collector) allocMediumForced(size uint64) uint64 {
	c.medMu.Lock()
	defer c.medMu.Unlock()
	if c.medPage != nil {
		if addr := c.medPage.AllocRaw(size); addr != 0 {
			return addr
		}
	}
	p, err := c.heap.AllocPageForced(heap.ClassMedium)
	if err != nil {
		panic(fmt.Sprintf("core: cannot allocate medium relocation target: %v", err))
	}
	c.medPage = p
	addr := p.AllocRaw(size)
	if addr == 0 {
		panic("core: fresh medium page cannot satisfy object")
	}
	return addr
}

// allocMedium is the mutator allocation path for medium objects; it
// respects the heap budget and reports failure for the stall path.
func (c *Collector) allocMedium(size uint64) (uint64, error) {
	c.medMu.Lock()
	defer c.medMu.Unlock()
	if c.medPage != nil {
		if addr := c.medPage.AllocRaw(size); addr != 0 {
			return addr, nil
		}
	}
	p, err := c.heap.AllocPage(heap.ClassMedium)
	if err != nil {
		return 0, err
	}
	c.medPage = p
	return p.AllocRaw(size), nil
}

// drainLoop is the GC worker's RE phase: claim EC pages and relocate every
// remaining live object, walking the livemap in address order.
func (w *gcWorker) drainLoop() {
	c := w.c
	tid := uint32(2 + w.id)
	c.tm.rec.BeginSpan(telemetry.SpanRelocate, tid)
	defer c.tm.rec.EndSpan(telemetry.SpanRelocate, tid)
	defer w.publish()
	vStart := c.VirtualCycles()
	defer func() {
		c.lat.RecordPhase(latency.PhaseRelocDrain, vStart, c.VirtualCycles())
	}()
	for w.drainStep(stepBudget) {
	}
}

// drainStep claims and drains at most budget EC pages through ecCursor and
// reports whether unclaimed pages remain.
func (w *gcWorker) drainStep(budget int) bool {
	c := w.c
	for ; budget > 0; budget-- {
		i := c.ecCursor.Add(1) - 1
		if int(i) >= len(c.ecPages) {
			return false
		}
		w.drainPage(c.ecPages[i])
	}
	return int(c.ecCursor.Load()) < len(c.ecPages)
}

// drainPage relocates all not-yet-relocated live objects of one EC page.
func (w *gcWorker) drainPage(p *heap.Page) {
	c := w.c
	start := p.Start()
	livemap := p.Livemap()
	livemap.ForEachSet(func(idx int) {
		addr := start + uint64(idx)*heap.WordSize
		c.relocateObject(w.ctx, addr, p)
	})
}
