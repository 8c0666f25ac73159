package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"hcsgc/internal/contention"
	"hcsgc/internal/faultinject"
	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Phase is the collector's era between pauses. The good color and phase
// only change inside stop-the-world pauses, so mutators observe both as
// stable between their safepoints.
type Phase uint32

// The phases. There is no separate idle phase: before the first cycle the
// collector is in PhaseRelocate with an empty evacuation set and good
// color R, which makes the first STW1 flip behave like every later one.
const (
	// PhaseMark spans STW1 to STW3: marking plus EC selection. The good
	// color is M0 or M1.
	PhaseMark Phase = iota
	// PhaseRelocate spans STW3 to the next STW1. The good color is R.
	PhaseRelocate
)

// Collector is the HCSGC collector instance for one heap.
type Collector struct {
	heap  *heap.Heap
	types *objmodel.Registry
	cfg   Config

	sp    *safepoints
	good  atomic.Uint64 // current good color (heap.Color bits)
	phase atomic.Uint32
	// markColorM1 alternates the mark color between cycles (Fig. 2).
	markColorM1 bool
	// startSeq is the page sequence snapshot taken at STW1; pages with
	// Seq <= startSeq are "allocated prior to STW1" and subject to
	// livemap accounting and EC selection.
	startSeq atomic.Uint64

	pool      *markPool
	workers   []*gcWorker
	pauseCtx  *relocCtx // relocation context for STW3 root relocation
	pauseCore *simmem.Core
	// pauseExtra is the non-memory cost ledger for STW work; only the
	// collector touches it, and only inside pauses.
	pauseExtra uint64

	// mutMu guards the attached-mutator set; taken inside cycleMu when a
	// cycle walks the mutators.
	//
	//hcsgc:lock-order 20
	mutMu contention.Mutex
	muts  map[*Mutator]struct{}
	// allocBytesClosed folds closed mutators' allocation ledgers so the
	// cycle record's allocation delta survives mutator churn. Under mutMu.
	allocBytesClosed uint64

	// Shared medium-page allocation (mutators and relocation); leaf-side
	// of the collector's locks, never held while taking mutMu or cycleMu.
	//
	//hcsgc:lock-order 30
	medMu   contention.Mutex
	medPage *heap.Page

	// ecPages is the current relocation set; ecCursor is the worker claim
	// index during the drain.
	ecPages  []*heap.Page
	ecCursor atomic.Int64
	// relocWG counts the GC workers' drain goroutines (startDrain).
	relocWG sync.WaitGroup
	// pendingDrop holds evacuated pages whose forwarding tables are
	// dropped at the end of the next mark, as in ZGC.
	pendingDrop []*heap.Page

	// cycleMu serializes GC cycles ("no overlapping ZGC cycles"). It is
	// the outermost collector lock: a cycle holds it across STW pauses,
	// which take mutMu and medMu underneath.
	//
	//hcsgc:lock-order 10
	cycleMu contention.Mutex
	cycles  telemetry.Counter // completed cycles; hcsgc_gc_cycles_total
	// started is the Seq of the latest cycle started (0 before the first):
	// ahead of cycles while a cycle runs.
	started atomic.Uint64

	// ctn is the contention attribution plane (nil when Config has none).
	ctn *contention.Plane

	stats statsLog
	tm    colTelemetry
	lat   *latency.Tracker
	// The cumulative totals as of the last cycle boundary: the cycle
	// record carries the differences (touched under cycleMu).
	lastAllocBytes   uint64
	lastRelocObjects uint64
	lastRelocBytes   uint64
	lastStalls       uint64
	lastVerifyTotal  uint64
	lastMem          simmem.CoreStats // the prefetch counts of Mem().Stats()
	// work is workerDelta's per-worker scratch.
	work []float64
	// watchdogFired counts STW watchdog reports (the pause kept waiting).
	watchdogFired atomic.Uint64
	// vclock is the virtual-timeline high-water mark in simulated cycles:
	// the max attached-mutator ledger plus pauseTotal, the accumulated STW
	// pause cost (counted once, here, for every reader).
	vclock     atomic.Uint64
	pauseTotal atomic.Uint64
	// stallCount counts allocation stalls runtime-wide.
	stallCount  telemetry.Counter
	inj         *faultinject.Injector
	relocSample atomic.Uint64 // sampling cursor for trace reloc_win instants

	// triggered holds one token while a cycle that trigger decided on is
	// pending or running (capacity 1); missed records a trigger that found
	// it taken, for that cycle's end.
	triggered chan struct{}
	missed    atomic.Bool
}

// New creates a collector for the given heap and type registry.
func New(h *heap.Heap, types *objmodel.Registry, cfg Config) (*Collector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Knobs.Validate(); err != nil {
		return nil, err
	}
	c := &Collector{
		heap:      h,
		types:     types,
		cfg:       cfg,
		sp:        newSafepoints(),
		pool:      newMarkPool(),
		muts:      make(map[*Mutator]struct{}),
		triggered: make(chan struct{}, 1),
	}
	c.tm = newColTelemetry(cfg.Telemetry, c)
	c.lat = cfg.Latency
	c.inj = cfg.FaultInjector
	c.ctn = cfg.Contention
	c.cycleMu.Instrument(c.ctn.NewSite("core.cycleMu"))
	c.mutMu.Instrument(c.ctn.NewSite("core.mutMu"))
	c.medMu.Instrument(c.ctn.NewSite("core.medMu"))
	c.pool.ops = c.ctn.NewOpSite("core.markPool")
	c.good.Store(uint64(heap.ColorRemapped))
	c.phase.Store(uint32(PhaseRelocate))
	for i := 0; i < cfg.GCWorkers; i++ {
		c.workers = append(c.workers, newGCWorker(c, i))
	}
	c.work = make([]float64, len(c.workers))
	if h.Mem() != nil {
		c.pauseCore = h.Mem().NewCore()
	}
	c.pauseCtx = &relocCtx{c: c, core: c.pauseCore, who: telemetry.RelocByGC}
	return c, nil
}

// MustNew is New but panics on configuration error.
func MustNew(h *heap.Heap, types *objmodel.Registry, cfg Config) *Collector {
	c, err := New(h, types, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Heap returns the managed heap.
func (c *Collector) Heap() *heap.Heap { return c.heap }

// Types returns the type registry.
func (c *Collector) Types() *objmodel.Registry { return c.types }

// Config returns the effective configuration.
func (c *Collector) Config() Config { return c.cfg }

// Good returns the current good color.
func (c *Collector) Good() heap.Color { return heap.Color(c.good.Load()) }

// CurrentPhase returns the collector's phase.
func (c *Collector) CurrentPhase() Phase { return Phase(c.phase.Load()) }

// Cycles returns the number of completed GC cycles.
func (c *Collector) Cycles() uint64 { return c.cycles.Value() }

// CyclesStarted returns the Seq of the latest cycle started: Cycles() + 1
// while a cycle runs, else Cycles(). A pause belongs to that cycle, which
// is logged only once it completes.
func (c *Collector) CyclesStarted() uint64 { return c.started.Load() }

// Collect runs one full GC cycle synchronously. It serializes with other
// cycles; calling it concurrently is allowed (the loser simply runs the
// next cycle after the winner finishes).
func (c *Collector) Collect(reason string) {
	c.cycleMu.Lock()
	defer c.cycleMu.Unlock()
	c.runCycle(reason)
}

// collectIfDue runs a cycle only if no cycle completed since prev,
// coalescing concurrent triggers (used by allocation stalls).
func (c *Collector) collectIfDue(prev uint64, reason string) {
	c.cycleMu.Lock()
	defer c.cycleMu.Unlock()
	if c.cycles.Value() != prev {
		return
	}
	c.runCycle(reason)
}

// runCycle executes one HCSGC cycle. Caller holds cycleMu.
//
// ZGC order:   STW1, M/R, STW2, EC, STW3, RE
// HCSGC lazy:  RE (leftover from previous cycle), STW1, M/R, STW2, EC, STW3
func (c *Collector) runCycle(reason string) {
	// The cycle's one record, filled in place from here on; the cold
	// fraction stays -1 unless the mark end measures it, the prefetch
	// ratios unless the cycle's end does.
	cs := &CycleStats{Seq: c.cycles.Value() + 1, Trigger: reason, VStart: c.VirtualCycles(),
		HeapUsedBefore: c.heap.UsedPercent(), ColdFrac: -1,
		PrefetchAccuracy: -1, PrefetchCoverage: -1}
	c.started.Store(cs.Seq)
	c.tm.rec.BeginSpan(telemetry.SpanCycle, collectorTID)

	// --- RE completion. In lazy mode the GC-thread share of relocation
	// was deferred to now (paper Fig. 3: "a GC cycle starts with RE");
	// otherwise just wait out any drain still running from last cycle.
	if c.cfg.Knobs.LazyRelocate {
		c.startDrain()
	}
	c.relocWG.Wait()
	c.finishRelocationEra()

	// --- STW1: flip to the mark color, snapshot the page set, reset
	// live/hot maps, scan roots.
	c.stopTheWorldTimed(telemetry.SpanPause1)
	c.tm.rec.BeginSpan(telemetry.SpanPause1, collectorTID)
	pause1 := c.beginPauseAccounting()
	v1 := c.VirtualCycles()
	c.startSeq.Store(c.heap.CurrentSeq())
	markColor := heap.ColorMarked0
	if c.markColorM1 {
		markColor = heap.ColorMarked1
	}
	c.markColorM1 = !c.markColorM1
	c.good.Store(uint64(markColor))
	c.phase.Store(uint32(PhaseMark))
	c.retireAllocationPages()
	c.heap.LivePages(func(p *heap.Page) {
		if p.Seq <= c.startSeq.Load() {
			p.ResetMarks()
		}
	})
	c.pool.setActive(len(c.workers))
	var rootGrays *markBuf
	c.forEachMutator(func(m *Mutator) {
		for i := range m.roots {
			rootGrays = c.processRootMark(m, i, rootGrays)
		}
	})
	c.pool.recycle(c.pool.put(rootGrays))
	cs.Pause1 = c.endPauseAccounting(pause1)
	c.recordPauseLatency(0, v1, cs.Pause1)
	c.verifyHeap("stw1")
	c.tm.rec.EndSpan(telemetry.SpanPause1, collectorTID)
	c.sp.resumeTheWorld()

	// --- M/R: concurrent parallel marking with mutator assistance.
	vMark := c.VirtualCycles()
	c.tm.rec.BeginSpan(telemetry.SpanMark, collectorTID)
	var markWG sync.WaitGroup
	c.startWorkers(&markWG, (*gcWorker).markLoop)

	// --- STW2: attempt mark termination until the wavefront is clean.
	// Every way a mutator stops hands its mark buffer to the pool first,
	// so with the world stopped the pool holds every gray object left.
	for {
		c.pool.waitQuiescent()
		c.stopTheWorldTimed(telemetry.SpanPause2)
		if c.pool.quiescent() {
			break // world remains stopped: this is STW2
		}
		c.sp.resumeTheWorld()
	}
	c.tm.rec.EndSpan(telemetry.SpanMark, collectorTID)
	c.lat.RecordPhase(latency.PhaseMark, vMark, c.VirtualCycles())
	c.tm.rec.BeginSpan(telemetry.SpanPause2, collectorTID)
	pause2 := c.beginPauseAccounting()
	v2 := c.VirtualCycles()
	c.pool.terminate()
	markWG.Wait()
	// Mark end: no stale pointers remain in the heap, so the previous
	// era's forwarding tables can be dropped and their backing recycled.
	for _, p := range c.pendingDrop {
		c.heap.DropPage(p)
	}
	c.pendingDrop = nil
	cs.Pause2 = c.endPauseAccounting(pause2)
	c.recordPauseLatency(1, v2, cs.Pause2)
	c.recordMarkEnd(cs)
	c.verifyHeap("stw2")
	c.tm.rec.EndSpan(telemetry.SpanPause2, collectorTID)
	c.sp.resumeTheWorld()

	// --- EC selection (concurrent with mutators).
	vEC := c.VirtualCycles()
	c.tm.rec.BeginSpan(telemetry.SpanECSelect, collectorTID)
	c.selectEvacuationCandidates(cs)
	c.tm.rec.EndSpan(telemetry.SpanECSelect, collectorTID)
	c.lat.RecordPhase(latency.PhaseECSelect, vEC, c.VirtualCycles())

	// --- STW3: flip to R, relocate/heal all roots.
	c.stopTheWorldTimed(telemetry.SpanPause3)
	c.tm.rec.BeginSpan(telemetry.SpanPause3, collectorTID)
	pause3 := c.beginPauseAccounting()
	v3 := c.VirtualCycles()
	c.good.Store(uint64(heap.ColorRemapped))
	c.phase.Store(uint32(PhaseRelocate))
	c.forEachMutator(func(m *Mutator) {
		for i := range m.roots {
			c.processRootRelocate(m, i)
		}
	})
	cs.Pause3 = c.endPauseAccounting(pause3)
	c.recordPauseLatency(2, v3, cs.Pause3)
	c.verifyHeap("stw3")
	c.tm.rec.EndSpan(telemetry.SpanPause3, collectorTID)
	c.sp.resumeTheWorld()

	// --- RE: in the original ZGC schedule, GC threads race mutators for
	// relocation right away; with LAZYRELOCATE they stand down until the
	// next cycle starts.
	if !c.cfg.Knobs.LazyRelocate {
		c.startDrain()
	}

	c.cycles.Inc()
	// Collector-owned fields first, then the tracker completes the record
	// in place, logs it and publishes it: every reader sees the completed
	// record, and nothing writes it again.
	c.closeCycleRecord(cs)
	c.tm.ecPages[0].Add(uint64(cs.ECSmall))
	c.tm.ecPages[1].Add(uint64(cs.ECMedium))
	c.recordLatencyCycle(cs)
	c.tm.rec.EndSpan(telemetry.SpanCycle, collectorTID)
}

// finishRelocationEra moves the fully drained evacuation set into
// pendingDrop, to be dropped at the coming mark end. The GC drain has
// relocated-or-observed every live object by now, but a mutator that won a
// forwarding race may still be between its CAS and its remaining-count
// decrement; wait out that window (it spans a few instructions of a
// running, never-parked barrier slow path).
func (c *Collector) finishRelocationEra() {
	for _, p := range c.ecPages {
		for spins := 0; p.Remaining() > 0; spins++ {
			if spins > 1_000_000 {
				panic(fmt.Sprintf("core: relocation era stuck with %d objects left on %v", p.Remaining(), p))
			}
			runtime.Gosched()
		}
		c.pendingDrop = append(c.pendingDrop, p)
	}
	c.ecPages = nil
}

// startWorkers runs phase on every GC worker, each on a goroutine of its
// own counted on wg: the one place GC-worker goroutines start.
func (c *Collector) startWorkers(wg *sync.WaitGroup, phase func(*gcWorker)) {
	for _, w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phase(w)
		}()
	}
}

// startDrain starts the GC workers' relocation drain of the evacuation set
// on relocWG, unless the set is empty.
func (c *Collector) startDrain() {
	if len(c.ecPages) == 0 {
		return
	}
	c.ecCursor.Store(0)
	c.startWorkers(&c.relocWG, (*gcWorker).drainLoop)
}

// retireAllocationPages detaches every allocation target page (mutator
// TLABs, GC relocation targets, the shared medium page) so that pages
// allocated before STW1 are frozen: nothing allocates into them again and
// their livemaps are authoritative after marking.
//
//hcsgc:stw-only
func (c *Collector) retireAllocationPages() {
	c.inj.At(faultinject.PageRetire, 0)
	c.forEachMutator(func(m *Mutator) { m.tlab = nil })
	for _, w := range c.workers {
		w.ctx.hotPage, w.ctx.coldPage = nil, nil
	}
	c.pauseCtx.hotPage, c.pauseCtx.coldPage = nil, nil
	c.medMu.Lock()
	c.medPage = nil
	c.medMu.Unlock()
}

// forEachMutator snapshots the mutator set and applies fn.
func (c *Collector) forEachMutator(fn func(*Mutator)) {
	c.mutMu.Lock()
	ms := make([]*Mutator, 0, len(c.muts))
	for m := range c.muts {
		ms = append(ms, m)
	}
	c.mutMu.Unlock()
	for _, m := range ms {
		fn(m)
	}
}

// --- pause accounting -------------------------------------------------

// beginPauseAccounting snapshots the pause core's cycle counter plus the
// explicit pause cost ledger.
//
//hcsgc:stw-only
func (c *Collector) beginPauseAccounting() uint64 {
	var base uint64
	if c.pauseCore != nil {
		base = c.pauseCore.Cycles()
	}
	return base + c.pauseExtra
}

// endPauseAccounting returns the simulated cycles spent since base, and
// publishes the pause's ledgers (the goroutine driving the cycle owns them
// for its duration) for Hierarchy.Stats and the contention plane.
//
//hcsgc:stw-only
func (c *Collector) endPauseAccounting(base uint64) uint64 {
	var cur uint64
	if c.pauseCore != nil {
		cur = c.pauseCore.Cycles()
		c.pauseCore.Publish()
	}
	c.pauseCtx.fold()
	return cur + c.pauseExtra - base
}

// selectEvacuationCandidates implements §3.1: baseline live-ratio
// selection, RELOCATEALLSMALLPAGES, and weighted-live-bytes selection with
// COLDCONFIDENCE. Empty pages (and dead large pages) are reclaimed
// immediately, as in ZGC.
func (c *Collector) selectEvacuationCandidates(cs *CycleStats) {
	startSeq := c.startSeq.Load()
	knobs := c.cfg.Knobs
	conf := knobs.ColdConfidence // 0 without Hotness (Knobs.Validate)
	type cand struct {
		p   *heap.Page
		wlb uint64
	}
	var cands []cand
	c.heap.LivePages(func(p *heap.Page) {
		if p.Seq > startSeq || p.Freed() {
			return
		}
		switch p.Class() {
		case heap.ClassLarge:
			// A large page holds one object: live or dead, decided here.
			if p.LiveBytes() == 0 {
				c.heap.FreePage(p)
				c.heap.DropPage(p)
				cs.PagesFreedEmpty++
			}
		case heap.ClassMedium:
			// Medium pages use the original ZGC criterion (paper §3.4:
			// hotness and the new knobs apply to small pages only).
			if p.LiveObjects() == 0 {
				c.heap.FreePage(p)
				c.heap.DropPage(p)
				cs.PagesFreedEmpty++
			} else if p.LiveRatio() < c.cfg.EvacThreshold {
				cands = append(cands, cand{p, p.LiveBytes()})
			}
		case heap.ClassSmall:
			if p.LiveObjects() == 0 {
				c.heap.FreePage(p)
				c.heap.DropPage(p)
				cs.PagesFreedEmpty++
				return
			}
			if knobs.RelocateAllSmallPages {
				cands = append(cands, cand{p, p.WeightedLiveBytes(conf)})
				return
			}
			wlb := p.WeightedLiveBytes(conf)
			if float64(wlb)/float64(p.Size()) < c.cfg.EvacThreshold {
				cands = append(cands, cand{p, wlb})
			}
		}
	})
	// Sort ascending by weighted live bytes and select. The paper's
	// N-maximisation constraint admits every page below the threshold once
	// candidates are individually below it (see DESIGN.md), so selection
	// takes all candidates, cheapest first.
	sort.Slice(cands, func(i, j int) bool { return cands[i].wlb < cands[j].wlb })
	c.ecPages = c.ecPages[:0]
	for _, cd := range cands {
		cd.p.SelectForEvacuation()
		c.ecPages = append(c.ecPages, cd.p)
		c.tm.rec.Record(telemetry.EvPageECSelect, uint32(cd.p.Class()), cd.p.Start(), cd.p.LiveBytes())
		switch cd.p.Class() {
		case heap.ClassMedium:
			cs.ECMedium++
		default:
			cs.ECSmall++
			cs.ECSmallLiveBytes += cd.p.LiveBytes()
		}
	}
}
