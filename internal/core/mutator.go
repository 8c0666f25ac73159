package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hcsgc/internal/faultinject"
	"hcsgc/internal/heap"
	"hcsgc/internal/locality"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Mutator is an application thread's handle onto the managed heap. Every
// reference load goes through the ZGC load barrier; every access feeds the
// owning core's cache model.
//
// Usage contract (mirrors what a JVM guarantees via stack scanning, which
// this library cannot do for Go locals): references must not be held in Go
// variables across a safepoint. Keep long-lived references in root slots
// and re-derive locals from roots after each Safepoint call; safepoints
// also occur inside Alloc* methods.
type Mutator struct {
	c    *Collector
	core *simmem.Core
	ctx  *relocCtx

	// roots is the mutator's root set (its simulated stack and globals).
	// Scanned and healed during STW pauses.
	roots []heap.Ref

	// tlab is the current small-page allocation buffer, also the
	// destination of mutator-side relocation (that sharing is what lays
	// relocated objects out in access order, §3.2).
	tlab *heap.Page

	// markBuf is the thread-local mark stack flushed to the GC (§2 fn 2):
	// one of the pool's buffers while it holds something, nil otherwise.
	markBuf []uint64

	// probe is the locality profiler's per-mutator sampling front-end;
	// nil when profiling is off, making each access site one predictable
	// branch (the nil check inside Probe.Access).
	probe *locality.Probe

	// extra accumulates non-memory cycle costs (barrier checks, hotmap
	// CASes, allocation bookkeeping); work accumulates application compute
	// cycles reported via Work. Like the core's ledger they are plain and
	// the owner's alone: the hot paths execute no locked instruction for
	// bookkeeping. Everyone else reads published (see Publish).
	extra uint64
	work  uint64
	// published is Cycles() as of the last Publish.
	published atomic.Uint64
	// stallVirtual accumulates the virtual-cycle duration of this
	// mutator's allocation stalls, net of STW pause cost (which
	// VirtualCycles adds separately). While a mutator stalls its own
	// ledger is frozen but the world moves on; this counter carries that
	// elapsed virtual time so the stall is visible on the mutator's
	// clock.
	stallVirtual atomic.Uint64

	// allocBytes is this mutator's cumulative allocation volume (it feeds
	// the cycle record's AllocBytes and the alloc-rate signal).
	allocBytes atomic.Uint64

	// tok is this mutator's identity in the safepoint protocol; the STW
	// watchdog names it when the mutator overruns a pause deadline.
	tok *spToken

	// budgetDeadline is the per-request allocation budget armed via
	// SetAllocBudget: an absolute virtual-cycle deadline (0 = unarmed,
	// costing one predictable branch per allocation). budgetMaxStalls
	// bounds the allocation stalls the budget may absorb; budgetStalls
	// counts those taken since the budget was armed. Owner-goroutine
	// only, like Stalls.
	budgetDeadline  uint64
	budgetMaxStalls int
	budgetStalls    int

	// Stalls counts allocation stalls.
	Stalls uint64

	closed bool
}

// NewMutator attaches a new mutator with the given number of root slots.
func (c *Collector) NewMutator(rootSlots int) *Mutator {
	m := &Mutator{c: c, roots: make([]heap.Ref, rootSlots)}
	if c.heap.Mem() != nil {
		m.core = c.heap.Mem().NewCore()
	}
	m.probe = c.cfg.Locality.NewProbe()
	m.ctx = &relocCtx{c: c, core: m.core, who: telemetry.RelocByMutator, mutator: m}
	m.tok = c.sp.register("")
	c.mutMu.Lock()
	c.muts[m] = struct{}{}
	c.mutMu.Unlock()
	return m
}

// Close detaches the mutator; it must not touch the heap afterwards.
func (m *Mutator) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.flushMarkBuf()
	m.Publish()
	m.c.mutMu.Lock()
	delete(m.c.muts, m)
	m.c.allocBytesClosed += m.allocBytes.Load()
	m.c.mutMu.Unlock()
	m.c.sp.unregister(m.tok)
}

// SetName labels this mutator in STW watchdog reports (default
// "mutator-N" in attach order). Serving threads name themselves so a
// stuck-safepoint report is actionable.
func (m *Mutator) SetName(name string) {
	m.c.sp.setName(m.tok, name)
}

// StallVirtualCycles returns the cumulative virtual-cycle duration of
// this mutator's allocation stalls, net of STW pause cost. Serving
// harnesses delta it across a request to attribute the request's own
// stall exposure.
func (m *Mutator) StallVirtualCycles() uint64 {
	return m.stallVirtual.Load()
}

// Safepoint is the GC poll; call it at loop back-edges. Allocation
// methods poll implicitly.
func (m *Mutator) Safepoint() {
	m.c.inj.At(faultinject.SafepointEntry, 0)
	if len(m.markBuf) > 0 && m.c.CurrentPhase() == PhaseMark {
		m.flushMarkBuf()
	}
	// Publish before parking, so that the ledger the collector reads under
	// stop-the-world is exact; otherwise only once enough has accumulated
	// (a publish is a handful of atomic stores: on every poll it would
	// cost an allocation-heavy mutator more than the plain ledger saves).
	if m.c.sp.requested.Load() {
		m.Publish()
		m.c.sp.park(m.tok)
	} else if m.Cycles()-m.published.Load() >= publishEvery {
		m.Publish()
	}
}

// publishEvery is how many cycles (about a thousand L1 hits) a running
// mutator lets accumulate on its ledger before a safepoint poll publishes
// it: the bound, plus one poll interval, on how far a concurrent reader of
// the published view lags the owner.
const publishEvery = 4096

// Publish makes the mutator's exact ledger — its core's counters, its
// cycle total, the page bumps, forwarding inserts and relocation wins it
// tallied — visible to other goroutines: Collector.VirtualCycles, the
// runtime ledger (ExecSeconds), Hierarchy.Stats, Collector.Stats and the
// contention plane read only what was published.
// Owner goroutine only. The runtime publishes wherever others are entitled
// to an exact answer — before parking at a safepoint and before any blocked
// section or allocation stall (so under stop-the-world every mutator's
// published view is exact), and in Close — and every publishEvery cycles
// in between. Harness code that reads runtime-wide numbers from a mutator's
// own goroutine mid-run calls it first.
func (m *Mutator) Publish() {
	if m.core != nil {
		m.core.Publish()
	}
	m.ctx.fold()
	m.published.Store(m.Cycles())
}

// PublishedCycles returns Cycles() as of the last Publish; safe from any
// goroutine.
func (m *Mutator) PublishedCycles() uint64 { return m.published.Load() }

func (m *Mutator) flushMarkBuf() {
	if len(m.markBuf) > 0 {
		m.c.pool.put(m.markBuf)
		m.markBuf = nil
	}
}

// RequestGC runs a full GC cycle from mutator context: the caller counts
// as stopped for the duration (it is driving the collector, not mutating).
// References held in Go locals are invalidated, exactly as across any
// other safepoint.
func (m *Mutator) RequestGC() {
	m.flushMarkBuf()
	m.Publish()
	m.c.sp.beginBlocked(m.tok)
	m.c.Collect("requested")
	m.c.sp.endBlocked(m.tok)
}

// Blocked runs fn with the mutator counted as stopped for the safepoint
// protocol, like JNI native code in HotSpot: the collector may pause the
// world while fn runs without waiting for this mutator to poll. fn must
// not touch the managed heap; root slots remain visible to the collector
// (and are healed by relocation) for the duration. References held in Go
// locals are invalidated, exactly as across any other safepoint.
//
// Multi-threaded embedders need this wherever a mutator goroutine waits
// on channels, WaitGroups or other mutators — an attached mutator that
// neither polls nor blocks deadlocks the next stop-the-world.
func (m *Mutator) Blocked(fn func()) {
	m.flushMarkBuf()
	m.Publish()
	m.c.sp.beginBlocked(m.tok)
	fn()
	m.c.sp.endBlocked(m.tok)
}

// Work charges n cycles of application compute to this mutator's ledger.
func (m *Mutator) Work(n uint64) { m.work += n }

// Cycles returns the mutator's accumulated cost: simulated memory access
// cycles plus bookkeeping plus reported compute. Owner view: exact, and
// for the owning goroutine only; others read PublishedCycles.
func (m *Mutator) Cycles() uint64 {
	var mem uint64
	if m.core != nil {
		mem = m.core.Cycles()
	}
	return mem + m.extra + m.ctx.extra + m.work
}

// VirtualCycles returns this mutator's position on the virtual timeline:
// its own cycle ledger, plus the global STW pause cost (pauses stop every
// mutator), plus the virtual duration of its own allocation stalls
// (during which its ledger is frozen while other mutators and the
// collector make progress). Open-loop serving harnesses measure request
// latency against this clock, so GC pauses and allocation stalls are
// charged to in-flight requests instead of vanishing. The pause
// component is the collector's one pause total (PauseCycles), the stall
// component StallVirtualCycles. Owner view, like Cycles.
func (m *Mutator) VirtualCycles() uint64 {
	return m.Cycles() + m.c.pauseTotal.Load() + m.stallVirtual.Load()
}

// Core exposes the mutator's cache-model core (may be nil when the runtime
// was built without a memory model).
func (m *Mutator) Core() *simmem.Core { return m.core }

// AllocatedBytes returns this mutator's cumulative allocation volume.
// Overload harnesses delta it across a request to prove shed requests
// perform zero heap allocations.
func (m *Mutator) AllocatedBytes() uint64 { return m.allocBytes.Load() }

// SetAllocBudget arms a per-request allocation budget on this mutator:
// allocations fail fast with a *DeadlineExceededError once the mutator's
// VirtualCycles clock passes deadlineV (checked before the first heap
// touch and again before each allocation stall), or once the budget has
// absorbed maxStalls allocation stalls (0 = stalls bounded only by the
// deadline and the global Config.StallRetries). This extends the global
// StallRetries bound with a caller-supplied per-request one: instead of
// taking a seat in a stall convoy, an over-budget request unwinds promptly
// and the caller sheds or retries it.
//
// The budget belongs to the owning goroutine, like the rest of the
// mutator's allocation state. deadlineV of 0 disarms (see
// ClearAllocBudget).
func (m *Mutator) SetAllocBudget(deadlineV uint64, maxStalls int) {
	m.budgetDeadline = deadlineV
	m.budgetMaxStalls = maxStalls
	m.budgetStalls = 0
}

// ClearAllocBudget disarms the per-request allocation budget; allocations
// revert to the global stall policy.
func (m *Mutator) ClearAllocBudget() {
	m.budgetDeadline = 0
	m.budgetMaxStalls = 0
	m.budgetStalls = 0
}

// budgetOver is the alloc-free predicate behind budgetExpired: it decides
// whether the armed budget is exhausted at virtual time nowV (and whether
// the fault injector forced the expiry) without materializing the error.
// The split keeps the per-allocation budget check provably allocation-free
// — the error value only exists on the failure path.
//
//hcsgc:alloc-free
func (m *Mutator) budgetOver(nowV uint64) (over, forced bool) {
	if nowV >= m.budgetDeadline {
		return true, false
	}
	if m.budgetMaxStalls > 0 && m.budgetStalls >= m.budgetMaxStalls {
		return true, false
	}
	if m.c.inj.ForceDeadline() {
		return true, true
	}
	return false, false
}

// budgetExpired checks the armed per-request budget (caller guarantees it
// is armed). The fault injector can force expiry, which is how the
// zero-allocations-after-decision regression test drives this path.
func (m *Mutator) budgetExpired(size uint64) *DeadlineExceededError {
	now := m.VirtualCycles()
	if over, forced := m.budgetOver(now); over {
		return &DeadlineExceededError{
			Size: size, DeadlineV: m.budgetDeadline, NowV: now, Stalls: m.budgetStalls,
			Forced: forced,
		}
	}
	return nil
}

// --- Allocation ---------------------------------------------------------

// Alloc allocates a fixed-layout object and returns a good-colored
// reference. Fields start zeroed (null references). On heap exhaustion it
// panics with the *OutOfMemoryError TryAlloc would return; callers that
// want to degrade gracefully use TryAlloc.
func (m *Mutator) Alloc(t *objmodel.Type) heap.Ref {
	return mustAlloc(m.TryAlloc(t))
}

// TryAlloc allocates a fixed-layout object, returning ErrOutOfMemory (as
// an *OutOfMemoryError with an occupancy snapshot) when the allocation
// stalled through its retry budget without the GC freeing enough space.
func (m *Mutator) TryAlloc(t *objmodel.Type) (heap.Ref, error) {
	return m.allocWords(t.SizeWords(), t.ID)
}

// AllocRefArray allocates an array of n reference slots, panicking on heap
// exhaustion (see Alloc).
func (m *Mutator) AllocRefArray(n int) heap.Ref {
	return mustAlloc(m.TryAllocRefArray(n))
}

// TryAllocRefArray allocates an array of n reference slots (see TryAlloc).
func (m *Mutator) TryAllocRefArray(n int) (heap.Ref, error) {
	return m.allocWords(objmodel.ArraySizeWords(n), objmodel.RefArrayTypeID)
}

// AllocWordArray allocates an array of n data words, panicking on heap
// exhaustion (see Alloc).
func (m *Mutator) AllocWordArray(n int) heap.Ref {
	return mustAlloc(m.TryAllocWordArray(n))
}

// TryAllocWordArray allocates an array of n data words (see TryAlloc).
func (m *Mutator) TryAllocWordArray(n int) (heap.Ref, error) {
	return m.allocWords(objmodel.ArraySizeWords(n), objmodel.WordArrayTypeID)
}

func mustAlloc(ref heap.Ref, err error) heap.Ref {
	if err != nil {
		panic(err)
	}
	return ref
}

// allocWords carves out the object, writes its header and returns a
// good-colored reference; new objects need no barrier before first
// publication.
//
//hcsgc:barrier-impl
func (m *Mutator) allocWords(sizeWords int, typeID uint16) (heap.Ref, error) {
	m.Safepoint()
	size := uint64(sizeWords) * heap.WordSize
	// Pre-flight budget check: an expired request fails here, before the
	// first heap touch, so a deadline-exceeded request performs zero heap
	// allocations after the decision point.
	if m.budgetDeadline != 0 {
		if derr := m.budgetExpired(size); derr != nil {
			return heap.NullRef, derr
		}
	}
	var addr uint64
	var err error
	switch heap.ClassFor(size) {
	case heap.ClassSmall:
		addr, err = m.allocSmall(size)
	case heap.ClassMedium:
		addr, err = m.allocStall(size, func() (uint64, error) { return m.c.allocMedium(size) })
	case heap.ClassLarge:
		addr, err = m.allocStall(size, func() (uint64, error) {
			p, err := m.c.heap.AllocLargePage(size)
			if err != nil {
				return 0, err
			}
			return p.AllocRaw(size), nil
		})
	}
	if err != nil {
		return heap.NullRef, err
	}
	m.c.heap.StoreWord(m.core, addr, objmodel.EncodeHeader(sizeWords, typeID))
	m.noteAlloc(size)
	return heap.MakeRef(addr, m.c.Good()), nil
}

// noteAlloc charges the fixed allocation cost, tallies the one page bump
// every allocation completes, and feeds the cycle record's allocation
// ledger. Split out of allocWords so the accounting tail of the allocation
// fast path is provably allocation-free.
//
//hcsgc:alloc-free
func (m *Mutator) noteAlloc(size uint64) {
	m.extra += costAlloc
	m.ctx.pageBumps++
	m.allocBytes.Add(size)
}

// allocSmall bump-allocates from the TLAB, refilling on demand.
func (m *Mutator) allocSmall(size uint64) (uint64, error) {
	if m.tlab != nil {
		if addr := m.tlab.AllocRaw(size); addr != 0 {
			return addr, nil
		}
	}
	return m.allocStall(size, func() (uint64, error) {
		p, err := m.c.heap.AllocPage(heap.ClassSmall)
		if err != nil {
			return 0, err
		}
		m.tlab = p
		return p.AllocRaw(size), nil
	})
}

// allocStall runs the allocation, stalling for GC cycles while the heap is
// full (the mutator counts as stopped during the stall). When the retry
// budget (Config.StallRetries) runs out without progress, it returns a
// structured *OutOfMemoryError instead of panicking, so heap exhaustion
// unwinds as an ordinary error. A successful allocation may have taken a
// page, so it asks the occupancy trigger.
func (m *Mutator) allocStall(size uint64, alloc func() (uint64, error)) (uint64, error) {
	var lastErr error
	var stalled uint64
	for attempt := 1; ; attempt++ {
		addr, err := alloc()
		if err == nil {
			if addr == 0 {
				panic("core: allocation returned null address without error")
			}
			m.c.trigger()
			return addr, nil
		}
		if !errors.Is(err, heap.ErrHeapFull) {
			// Address-space exhaustion and the like: stalling cannot help.
			return 0, err
		}
		lastErr = err
		if attempt > m.c.cfg.StallRetries {
			m.c.lat.AutoDump(fmt.Sprintf(
				"oom: %d-byte allocation gave up after %d attempts", size, attempt))
			return 0, &OutOfMemoryError{
				Size:          size,
				Attempts:      attempt,
				StalledCycles: stalled,
				UsedBytes:     m.c.heap.UsedBytes(),
				MaxBytes:      m.c.heap.MaxBytes(),
				Cause:         lastErr,
			}
		}
		// Per-request budget: prefer failing this request promptly over
		// taking a seat in the stall convoy. Checked before every stall so
		// the bound holds even when the global StallRetries is generous.
		if m.budgetDeadline != 0 {
			if derr := m.budgetExpired(size); derr != nil {
				return 0, derr
			}
			m.budgetStalls++
		}
		m.Stalls++
		m.c.stallCount.Inc()
		prev := m.c.cycles.Value()
		// Published before the clock is sampled: the stall starts at this
		// mutator's own latest access, not at its last safepoint poll.
		m.Publish()
		stallStart := m.c.VirtualCycles()
		pauseBefore := m.c.pauseTotal.Load()
		m.c.sp.beginBlocked(m.tok)
		m.c.collectIfDue(prev, "allocation stall")
		m.c.sp.endBlocked(m.tok)
		stallEnd := m.c.VirtualCycles()
		// Charge the stall's elapsed virtual time to this mutator's
		// VirtualCycles clock, net of the pause cost accrued inside
		// the stall (the clock adds pauseTotal separately).
		pauseDelta := m.c.pauseTotal.Load() - pauseBefore
		if d := stallEnd - stallStart; d > pauseDelta {
			m.stallVirtual.Add(d - pauseDelta)
			stalled += d - pauseDelta
		}
		m.c.lat.RecordStall(stallStart, stallEnd, m.c.mutatorStallWeight())
	}
}

// relocTargetSmall allocates relocation destination space in the TLAB so
// relocated objects are laid out in this mutator's access order. Refills
// bypass the heap budget (relocation must not stall) and, being page takes,
// ask the occupancy trigger.
func (m *Mutator) relocTargetSmall(size uint64) uint64 {
	if m.tlab != nil {
		if addr := m.tlab.AllocRaw(size); addr != 0 {
			return addr
		}
	}
	p, err := m.c.heap.AllocPageForced(heap.ClassSmall)
	if err != nil {
		panic(fmt.Sprintf("core: cannot allocate mutator relocation target: %v", err))
	}
	m.tlab = p
	m.c.trigger()
	addr := p.AllocRaw(size)
	if addr == 0 {
		panic("core: fresh TLAB cannot satisfy small object")
	}
	return addr
}

// --- Root access ----------------------------------------------------------

// NumRoots returns the root slot count.
func (m *Mutator) NumRoots() int { return len(m.roots) }

// SetRoot stores ref (a good-colored reference obtained this era) into
// root slot i.
func (m *Mutator) SetRoot(i int, ref heap.Ref) { m.roots[i] = ref }

// LoadRoot returns the reference in root slot i, applying the load
// barrier. Root slots model registers/stack, so no simulated memory
// traffic is charged — only the barrier check.
func (m *Mutator) LoadRoot(i int) heap.Ref {
	raw := m.roots[i]
	m.extra += costBarrierFast
	if raw.IsNull() || raw.Color() == m.c.Good() {
		return raw
	}
	healed := m.barrierSlow(raw)
	m.roots[i] = healed
	return healed
}

// --- Heap access ------------------------------------------------------------

// LoadRef loads the reference in field (or ref-array element) i of obj,
// applying the load barrier and self-healing the slot.
//
//hcsgc:barrier-impl
func (m *Mutator) LoadRef(obj heap.Ref, i int) heap.Ref {
	slot := objmodel.FieldAddr(obj.Addr(), i)
	m.probe.Access(slot)
	raw := heap.Ref(m.c.heap.LoadWord(m.core, slot))
	m.extra += costBarrierFast
	if raw.IsNull() || raw.Color() == m.c.Good() {
		return raw
	}
	healed := m.barrierSlow(raw)
	m.c.heap.CASWord(m.core, slot, uint64(raw), uint64(healed))
	return healed
}

// StoreRef stores val into field (or ref-array element) i of obj. val
// must be null or a reference obtained during the current era (good
// color), which every Alloc/LoadRef/LoadRoot result is.
//
//hcsgc:barrier-impl
func (m *Mutator) StoreRef(obj heap.Ref, i int, val heap.Ref) {
	if !val.IsNull() && val.Color() != m.c.Good() {
		panic(fmt.Sprintf("core: storing stale reference %v (good is %v); references must not be held across safepoints", val, m.c.Good()))
	}
	slot := objmodel.FieldAddr(obj.Addr(), i)
	m.probe.Access(slot)
	m.c.heap.StoreWord(m.core, slot, uint64(val))
}

// LoadField loads the data word in field i of obj.
//
//hcsgc:barrier-impl
func (m *Mutator) LoadField(obj heap.Ref, i int) uint64 {
	slot := objmodel.FieldAddr(obj.Addr(), i)
	m.probe.Access(slot)
	return m.c.heap.LoadWord(m.core, slot)
}

// StoreField stores a data word into field i of obj.
//
//hcsgc:barrier-impl
func (m *Mutator) StoreField(obj heap.Ref, i int, v uint64) {
	slot := objmodel.FieldAddr(obj.Addr(), i)
	m.probe.Access(slot)
	m.c.heap.StoreWord(m.core, slot, v)
}

// LoadFields loads the len(dst) data words of obj from field i on into
// dst: LoadField for each, as one heap word run (heap.LoadWords). The
// profiler still sees one access per word.
//
//hcsgc:barrier-impl
func (m *Mutator) LoadFields(obj heap.Ref, i int, dst []uint64) {
	slot := objmodel.FieldAddr(obj.Addr(), i)
	m.probeRun(slot, len(dst))
	m.c.heap.LoadWords(m.core, slot, dst)
}

// StoreFields stores src into the len(src) data fields of obj from field i
// on: StoreField for each, as one heap word run (heap.StoreWords).
//
//hcsgc:barrier-impl
func (m *Mutator) StoreFields(obj heap.Ref, i int, src []uint64) {
	slot := objmodel.FieldAddr(obj.Addr(), i)
	m.probeRun(slot, len(src))
	m.c.heap.StoreWords(m.core, slot, src)
}

// probeRun feeds the n words from addr on to the profiler, one access each.
func (m *Mutator) probeRun(addr uint64, n int) {
	if m.probe == nil {
		return
	}
	for j := 0; j < n; j++ {
		m.probe.Access(addr + uint64(j)*heap.WordSize)
	}
}

// ArrayLen returns the element count of the array obj. The header word
// is read raw: array lengths are immutable after allocation, so the slot
// can never hold a stale reference for the barrier to heal.
//
//hcsgc:barrier-impl
func (m *Mutator) ArrayLen(obj heap.Ref) int {
	m.probe.Access(obj.Addr())
	return objmodel.ArrayLen(m.c.heap.LoadWord(m.core, obj.Addr()))
}

// barrierSlow is the load-barrier slow path (§2): remap, mark, relocate
// and hotness-flag as the phase dictates, returning the good-colored
// reference. Phase and good color are stable here because they only
// change while this mutator is parked at a safepoint.
func (m *Mutator) barrierSlow(raw heap.Ref) heap.Ref {
	c := m.c
	c.inj.At(faultinject.BarrierSlow, raw.Addr())
	m.extra += costBarrierSlow
	c.tm.barrierSlow.Inc()
	// Latency attribution: exact per-path hit counters, plus a sampled
	// latency measured as this mutator's cycle-ledger delta across the
	// slow path and attributed to the primary dispatch outcome.
	lt := c.lat
	var sampleStart uint64
	sampled := lt.SampleBarrier()
	if sampled {
		sampleStart = m.Cycles()
	}
	primary := latency.PathMark
	addr := raw.Addr()
	p := c.heap.PageOf(addr)
	if p == nil {
		panic("core: stale reference to unmapped address " + raw.String())
	}
	switch c.CurrentPhase() {
	case PhaseMark:
		// Remap through the previous era's forwarding, then mark. A
		// mutator access is the definition of hot (§3.1.2).
		if p.Forwarding() != nil {
			lt.BarrierHit(latency.PathRemap)
			addr = c.remapForward(addr, p)
			p = c.heap.PageOf(addr)
		}
		pushed, cost := c.markObject(m.core, addr, true)
		m.extra += cost
		if cost > 0 {
			// markObject charges only for a won hotness CAS (§3.1.2).
			lt.BarrierHit(latency.PathHotmapRecord)
		}
		lt.BarrierHit(latency.PathMark)
		if pushed {
			m.markBuf = c.pool.push(m.markBuf, addr)
		}
	case PhaseRelocate:
		// Compete with GC threads to relocate (§2.2 RE, §3.2): if this
		// mutator wins, the object lands in its TLAB in access order.
		if p.InEC() {
			primary = latency.PathRelocate
			lt.BarrierHit(latency.PathRelocate)
			addr = c.relocateObject(m.ctx, addr, p)
		} else {
			// Stale color on a non-candidate page: recolor only.
			primary = latency.PathRemap
			lt.BarrierHit(latency.PathRemap)
		}
	}
	if sampled {
		lt.RecordBarrierLatency(primary, m.Cycles()-sampleStart)
	}
	return heap.MakeRef(addr, c.Good())
}
