package heap

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hcsgc/internal/contention"
	"hcsgc/internal/faultinject"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry"
)

// ErrHeapFull is returned when committing a new page would exceed the
// configured max heap size. Mutators respond by stalling until a GC cycle
// reclaims pages (an "allocation stall" in ZGC terms).
var ErrHeapFull = errors.New("heap: max heap size exceeded")

// ErrAddressSpace is returned when the simulated address space is
// exhausted. Addresses are handed out monotonically and never reused so
// the cache model never sees two different objects alias the same line.
var ErrAddressSpace = errors.New("heap: simulated address space exhausted")

// Config sizes the heap.
type Config struct {
	// MaxBytes is the committed-heap limit (like -Xmx). Zero means 256 MB.
	MaxBytes uint64
	// AddrSpaceBytes bounds the monotonic simulated address space. Zero
	// means 512 GB, far above what any benchmark run consumes — which is
	// why it stays an option although only tests set it: exhaustion
	// (ErrAddressSpace) is out of a test's reach at the default.
	AddrSpaceBytes uint64
	// Injector, when non-nil, arms the fault-injection plane at the heap's
	// injection points (page commit/free, UndoAlloc). Nil costs one branch
	// per site.
	Injector *faultinject.Injector
	// Contention, when non-nil, attributes the page-allocator lock and
	// the heap's CAS loops (page bump pointers, forwarding tables) to
	// the contention plane. Nil costs one branch per site.
	Contention *contention.Plane
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxBytes == 0 {
		out.MaxBytes = 256 << 20
	}
	if out.AddrSpaceBytes == 0 {
		out.AddrSpaceBytes = 512 << 30
	}
	return out
}

// Heap is the simulated managed heap: a monotonic granule allocator, the
// page table used by barriers to find an address's page, and byte
// accounting against MaxBytes. The host memory behind its pages comes from,
// and goes back to, the process-wide arena (see internal/arena).
type Heap struct {
	cfg Config
	mem *simmem.Hierarchy

	// pageTable maps granule index -> page, covering the whole simulated
	// address space. Multi-granule pages occupy all their slots.
	pageTable []atomic.Pointer[Page]
	// nextGranule is the bump allocator over address space; granule 0 is
	// reserved so that address 0 stays null.
	nextGranule atomic.Uint64
	// usedBytes is committed page bytes (alloc adds, free subtracts).
	usedBytes atomic.Int64
	// seq numbers pages in allocation order.
	seq atomic.Uint64

	// mu is the page-allocator lock: innermost of the allocation
	// hierarchy, never held while calling back out of the package.
	//
	//hcsgc:lock-order 40
	mu   contention.Mutex
	live map[*Page]struct{} // active (non-freed) pages, for EC iteration

	// casAlloc/casFwd attribute the heap-wide CAS loops; copied into
	// each page so the hot loops need no heap back-pointer.
	casAlloc *contention.OpSite
	casFwd   *contention.OpSite

	// PagesAllocated / PagesFreed are lifetime counters for reporting.
	PagesAllocated atomic.Uint64
	PagesFreed     atomic.Uint64

	// rec receives page-lifecycle telemetry events; nil (the default)
	// disables recording at the cost of one branch per transition.
	rec *telemetry.Recorder
	// inj is the fault-injection plane from Config.Injector (may be nil).
	inj *faultinject.Injector
	// verifier, when attached, receives invariant violations from the STW
	// heap walks the collector runs at phase boundaries.
	verifier atomic.Pointer[Verifier]
}

// New builds a heap bound to a memory-hierarchy model (may be nil in unit
// tests that don't care about cache behaviour).
func New(cfg Config, mem *simmem.Hierarchy) *Heap {
	cfg = cfg.withDefaults()
	granules := cfg.AddrSpaceBytes / Granule
	h := &Heap{
		cfg:       cfg,
		mem:       mem,
		pageTable: tableSlabs.Get(int(granules)),
		live:      make(map[*Page]struct{}),
		inj:       cfg.Injector,
	}
	h.nextGranule.Store(1)
	h.mu.Instrument(cfg.Contention.NewSite("heap.mu"))
	h.casAlloc = cfg.Contention.NewOpSite("heap.pageBump")
	h.casFwd = cfg.Contention.NewOpSite("heap.forwardTable")
	return h
}

// pageSizeOf returns the fixed page size of non-large classes.
func pageSizeOf(c Class) uint64 {
	switch c {
	case ClassSmall:
		return SmallPageSize
	case ClassMedium:
		return MediumPageSize
	default:
		panic("heap: large pages have no fixed size")
	}
}

// Config returns the effective configuration.
func (h *Heap) Config() Config { return h.cfg }

// SetRecorder attaches a telemetry recorder for page-lifecycle events
// (allocated, freed). Call before the heap is shared across goroutines.
func (h *Heap) SetRecorder(rec *telemetry.Recorder) { h.rec = rec }

// Mem returns the memory-hierarchy model (may be nil).
func (h *Heap) Mem() *simmem.Hierarchy { return h.mem }

// AllocPage commits a new page of a fixed-size class.
func (h *Heap) AllocPage(class Class) (*Page, error) {
	if class == ClassLarge {
		return nil, errors.New("heap: use AllocLargePage for large objects")
	}
	return h.installPage(pageSizeOf(class), class)
}

// AllocPageForced commits a page of a fixed-size class, bypassing the
// MaxBytes budget. Relocation target pages use this: relocation must never
// fail mid-flight, so the collector overcommits briefly (ZGC reserves
// relocation headroom for the same reason).
func (h *Heap) AllocPageForced(class Class) (*Page, error) {
	if class == ClassLarge {
		return nil, errors.New("heap: use AllocLargePage for large objects")
	}
	return h.installPageForced(pageSizeOf(class), class)
}

// AllocLargePage commits a page for one object of objSize bytes
// (> MediumObjectMax), rounded up to whole granules.
func (h *Heap) AllocLargePage(objSize uint64) (*Page, error) {
	size := (objSize + Granule - 1) / Granule * Granule
	return h.installPage(size, ClassLarge)
}

func (h *Heap) installPage(size uint64, class Class) (*Page, error) {
	if h.inj.FailCommit() {
		return nil, fmt.Errorf("heap: injected commit failure for %v page of %d bytes: %d of %d bytes committed: %w",
			class, size, h.usedBytes.Load(), h.cfg.MaxBytes, ErrHeapFull)
	}
	if used := uint64(h.usedBytes.Load()); used+size > h.cfg.MaxBytes {
		return nil, fmt.Errorf("heap: cannot commit %v page of %d bytes: %d of %d bytes committed (%.1f%%): %w",
			class, size, used, h.cfg.MaxBytes, 100*float64(used)/float64(h.cfg.MaxBytes), ErrHeapFull)
	}
	return h.installPageForced(size, class)
}

func (h *Heap) installPageForced(size uint64, class Class) (*Page, error) {
	nGran := (size + Granule - 1) / Granule
	g := h.nextGranule.Add(nGran) - nGran
	if (g+nGran)*Granule > h.cfg.AddrSpaceBytes {
		return nil, ErrAddressSpace
	}
	p := newPage(g*Granule, size, class, h.seq.Add(1))
	p.inj = h.inj
	p.casAlloc = h.casAlloc
	p.casFwd = h.casFwd
	for i := uint64(0); i < nGran; i++ {
		h.pageTable[g+i].Store(p)
	}
	h.usedBytes.Add(int64(size))
	h.PagesAllocated.Add(1)
	h.mu.Lock()
	h.live[p] = struct{}{}
	h.mu.Unlock()
	h.rec.Record(telemetry.EvPageAlloc, uint32(class), p.start, size)
	return p, nil
}

// FreePage releases a page's committed bytes. The page's address range and
// backing remain readable until DropPage so that in-flight relocations and
// forwarding lookups stay valid (as in ZGC, where evacuated pages are
// recycled but their forwarding tables survive until next mark end).
func (h *Heap) FreePage(p *Page) {
	h.inj.At(faultinject.PageFree, p.start)
	if p.Freed() {
		return
	}
	p.MarkFreed()
	h.usedBytes.Add(-int64(p.Size()))
	h.PagesFreed.Add(1)
	h.mu.Lock()
	delete(h.live, p)
	h.mu.Unlock()
	h.rec.Record(telemetry.EvPageFreed, uint32(p.class), p.start, p.size)
}

// DropPage releases the page's host memory — backing store, live and hot
// bitmaps, forwarding table — to the arena. Only call when no stale
// pointers into the page can remain, i.e. at the end of the mark following
// its evacuation (the forwarding registry is dropped then, as in ZGC).
func (h *Heap) DropPage(p *Page) { p.drop() }

// Release drops every page that still holds host memory — live, or freed
// and waiting for its drop — and the page table, so that the next heap
// built in this process starts from what this one used instead of from the
// Go allocator. The heap is dead afterwards: its words cannot be read,
// nothing can be allocated from it. The caller guarantees that no
// goroutine can still reach it (no mutator attached, no GC cycle or
// relocation drain running); a heap that cannot be shown quiet is simply
// never released and falls to the Go collector whole.
func (h *Heap) Release() {
	if h.pageTable == nil {
		return // already released
	}
	end := min(h.nextGranule.Load(), uint64(len(h.pageTable)))
	for g := uint64(1); g < end; g++ {
		// A multi-granule page comes up once per granule; dropping is
		// idempotent.
		if p := h.pageTable[g].Load(); p != nil {
			p.drop()
		}
	}
	// Last, the page table itself (2 MB for the default address space):
	// every address is unmapped from here on.
	tableSlabs.Put(h.pageTable, int(end))
	h.pageTable = nil
}

// CountForwardOps credits n completed ForwardTable.Insert calls to the
// heap.forwardTable attribution site. Relocators tally their inserts
// privately and fold them in where they publish their other ledgers.
func (h *Heap) CountForwardOps(n uint64) { h.casFwd.Add(n) }

// CountPageBumps credits n completed Page.AllocRaw calls to the
// heap.pageBump attribution site, folded in the same way.
func (h *Heap) CountPageBumps(n uint64) { h.casAlloc.Add(n) }

// PageOf returns the page containing addr, or nil for addresses outside
// any allocated page. Barrier fast path: alloc-free.
//
//hcsgc:alloc-free
func (h *Heap) PageOf(addr uint64) *Page {
	g := addr / Granule
	if g >= uint64(len(h.pageTable)) {
		return nil
	}
	return h.pageTable[g].Load()
}

// LivePages calls fn for every non-freed page. fn must not allocate or
// free pages.
func (h *Heap) LivePages(fn func(*Page)) {
	h.mu.Lock()
	pages := make([]*Page, 0, len(h.live))
	for p := range h.live {
		pages = append(pages, p)
	}
	h.mu.Unlock()
	for _, p := range pages {
		fn(p)
	}
}

// SetVerifier attaches (or, with nil, detaches) the STW heap verifier.
// The collector consults it at phase boundaries; a detached verifier costs
// one branch per boundary.
func (h *Heap) SetVerifier(v *Verifier) { h.verifier.Store(v) }

// Verifier returns the attached STW heap verifier, or nil.
func (h *Heap) Verifier() *Verifier { return h.verifier.Load() }

// VerifyAccounting checks Σ live-page sizes == usedBytes against the
// attached verifier. Must run under STW (or with page alloc/free otherwise
// quiescent); a mismatch means a page was leaked from or double-counted in
// the committed-bytes budget that drives the GC trigger.
//
//hcsgc:stw-only
func (h *Heap) VerifyAccounting(phase string) {
	v := h.Verifier()
	if v == nil {
		return
	}
	var sum uint64
	h.LivePages(func(p *Page) { sum += p.Size() })
	if used := h.UsedBytes(); sum != used {
		v.Report(CheckAccounting, phase, 0, 0,
			fmt.Sprintf("live pages total %d bytes but usedBytes is %d", sum, used))
	}
}

// CurrentSeq returns the sequence number of the most recently allocated
// page; the collector snapshots it at STW1 to freeze the page set subject
// to this cycle.
func (h *Heap) CurrentSeq() uint64 { return h.seq.Load() }

// UsedBytes returns the committed heap bytes.
func (h *Heap) UsedBytes() uint64 { return uint64(h.usedBytes.Load()) }

// UsedPercent returns committed bytes over MaxBytes in [0, 100].
func (h *Heap) UsedPercent() float64 {
	return 100 * float64(h.usedBytes.Load()) / float64(h.cfg.MaxBytes)
}

// MaxBytes returns the heap limit.
func (h *Heap) MaxBytes() uint64 { return h.cfg.MaxBytes }

// --- Simulated memory access ---
//
// All accesses take the accessor's simmem core so that loads and stores
// feed the cache model and accumulate cycle costs on the right "hardware
// thread". A nil core skips cache modelling (metadata-only paths).

// LoadWord reads the 8-byte word at addr. Every simulated heap read
// funnels through here: alloc-free.
//
//hcsgc:alloc-free
func (h *Heap) LoadWord(c *simmem.Core, addr uint64) uint64 {
	p := h.PageOf(addr)
	if p == nil {
		panic(fmt.Sprintf("heap: load from unmapped address %#x", addr))
	}
	if c != nil {
		c.Load(addr, WordSize)
	}
	return p.loadWord(p.WordIndex(addr))
}

// StoreWord writes the 8-byte word at addr.
//
//hcsgc:alloc-free
func (h *Heap) StoreWord(c *simmem.Core, addr uint64, v uint64) {
	p := h.PageOf(addr)
	if p == nil {
		panic(fmt.Sprintf("heap: store to unmapped address %#x", addr))
	}
	if c != nil {
		c.Store(addr, WordSize)
	}
	p.storeWord(p.WordIndex(addr), v)
}

// LoadWords reads the len(dst) consecutive words from addr on into dst:
// LoadWord for each, priced as one word run (simmem.Core.LoadRun), with
// one page lookup for the run. Each word is still read atomically. The run
// must lie in one page, as an object's words do.
//
//hcsgc:alloc-free
func (h *Heap) LoadWords(c *simmem.Core, addr uint64, dst []uint64) {
	p := h.runPage(addr, len(dst), "load")
	if c != nil {
		c.LoadRun(addr, len(dst))
	}
	idx := p.WordIndex(addr)
	for i := range dst {
		dst[i] = p.loadWord(idx + uint64(i))
	}
}

// StoreWords writes src to the len(src) consecutive words from addr on:
// StoreWord for each, priced as one word run (simmem.Core.StoreRun), with
// one page lookup for the run. Each word is still written atomically.
//
//hcsgc:alloc-free
func (h *Heap) StoreWords(c *simmem.Core, addr uint64, src []uint64) {
	p := h.runPage(addr, len(src), "store")
	if c != nil {
		c.StoreRun(addr, len(src))
	}
	idx := p.WordIndex(addr)
	for i, v := range src {
		p.storeWord(idx+uint64(i), v)
	}
}

// runPage returns the page holding the n-word run from addr, panicking
// like LoadWord when the run starts outside any page or leaves its page.
func (h *Heap) runPage(addr uint64, n int, op string) *Page {
	p := h.PageOf(addr)
	if p == nil || addr+uint64(n)*WordSize > p.End() {
		panic(fmt.Sprintf("heap: %d-word %s at %#x leaves the mapped pages", n, op, addr))
	}
	return p
}

// CASWord atomically replaces old with new at addr; used by the load
// barrier's self-healing store. The cache cost is that of a store.
func (h *Heap) CASWord(c *simmem.Core, addr uint64, old, new uint64) bool {
	p := h.PageOf(addr)
	if p == nil {
		panic(fmt.Sprintf("heap: cas on unmapped address %#x", addr))
	}
	if c != nil {
		c.Store(addr, WordSize)
	}
	return p.casWord(p.WordIndex(addr), old, new)
}

// CopyObject copies size bytes of object data from src to dst, charging
// the copier's core with the loads and stores. This is the relocation copy
// (mutator or GC, whoever wins the race).
func (h *Heap) CopyObject(c *simmem.Core, src, dst, size uint64) {
	sp, dp := h.PageOf(src), h.PageOf(dst)
	if sp == nil || dp == nil {
		panic(fmt.Sprintf("heap: copy between unmapped addresses %#x -> %#x", src, dst))
	}
	words := (size + WordSize - 1) / WordSize
	si, di := sp.WordIndex(src), dp.WordIndex(dst)
	for i := uint64(0); i < words; i++ {
		dp.storeWord(di+i, sp.loadWord(si+i))
	}
	if c != nil {
		c.Load(src, int(size))
		c.Store(dst, int(size))
	}
}
