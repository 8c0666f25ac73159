package heap

import (
	"fmt"
	"sync/atomic"

	"hcsgc/internal/arena"
	"hcsgc/internal/contention"
	"hcsgc/internal/faultinject"
)

// Page size classes per Table 1 of the paper.
const (
	// SmallPageSize is 2 MB; small pages hold objects of (0, 256] KB.
	SmallPageSize = 2 << 20
	// SmallObjectMax is the largest object placed on a small page.
	SmallObjectMax = 256 << 10
	// MediumPageSize is 32 MB; medium pages hold objects of (256 KB, 4 MB].
	MediumPageSize = 32 << 20
	// MediumObjectMax is the largest object placed on a medium page.
	MediumObjectMax = 4 << 20
	// Granule is the unit of heap address allocation; large pages are a
	// multiple of it ("N x 2 (> 4) Mb" in Table 1).
	Granule = 2 << 20
)

// Class identifies the size class of a page.
type Class uint8

// The page classes. Page events carry the class number, so the values are
// fixed: 1, 2 and 3, and a zero Class names no class.
const (
	ClassSmall Class = iota + 1
	ClassMedium
	ClassLarge
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassSmall:
		return "small"
	case ClassMedium:
		return "medium"
	case ClassLarge:
		return "large"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Page is one region of the simulated heap. Object data lives in words;
// the page's simulated address range is [Start, Start+Size). Metadata
// (livemap, hotmap, forwarding) mirrors ZGC's per-page structures.
//
// Fields are grouped by who writes them, each group on host cache lines of
// its own (TestHotStructLayout pins it): every LoadWord reads start and
// words, and must not take a miss because an allocator moved top or a GC
// worker counted a live object.
type Page struct {
	// Written once by newPage (drop clears the slices when the
	// page dies).
	start uint64
	size  uint64
	class Class
	// Seq is the global allocation sequence number of the page; EC
	// selection only considers pages allocated before the cycle began
	// ("allocated prior to STW1", §2.2).
	Seq uint64

	words   []uint64
	livemap *Bitmap
	hotmap  *Bitmap
	// inj is the heap's fault-injection plane (nil when disarmed), copied
	// here so UndoAlloc's race window can be perturbed without a heap
	// back-pointer.
	inj *faultinject.Injector
	// casAlloc/casFwd are the heap-wide CAS attribution sites for the
	// bump-pointer and forwarding-table loops (nil for a heap built
	// without a contention plane). The pages count lost races there;
	// completed operations are tallied by their callers (see AllocRaw).
	casAlloc *contention.OpSite
	casFwd   *contention.OpSite
	_        [32]byte

	// top is the bump pointer: the next free simulated address. Written by
	// whoever allocates into the page.
	top atomic.Uint64
	_   [56]byte

	// Written by markers and relocators.
	//
	// liveBytes/hotBytes/liveObjects are accumulated during marking.
	liveBytes   atomic.Uint64
	hotBytes    atomic.Uint64
	liveObjects atomic.Int64
	// remaining counts live objects not yet relocated; hitting zero allows
	// the page to be recycled.
	remaining atomic.Int64
	// fwd is installed when the page is selected for evacuation.
	fwd atomic.Pointer[ForwardTable]
	// inEC marks the page as an evacuation candidate for the current
	// relocation era.
	inEC atomic.Bool
	// freed marks a recycled page (address space retired, backing kept
	// until the forwarding registry is dropped at next mark end).
	freed atomic.Bool
	_     [16]byte
}

// newPage wires a page over a fresh address range. Its backing and bitmaps
// read zero: allocation writes just the object header and relies on the
// rest reading as null. Large pages come in free-form sizes, which would
// pile up in the arena unmatched, so their backing is the Go allocator's.
func newPage(start, size uint64, class Class, seq uint64) *Page {
	p := &Page{start: start, size: size, class: class, Seq: seq}
	if class == ClassLarge {
		p.words = make([]uint64, size/WordSize)
	} else {
		p.words = arena.Words.Get(int(size / WordSize))
	}
	p.top.Store(start)
	bits := int(size / WordSize)
	p.livemap = NewBitmap(bits)
	p.hotmap = NewBitmap(bits)
	return p
}

// Start returns the page's first simulated address.
func (p *Page) Start() uint64 { return p.start }

// Size returns the page size in bytes.
func (p *Page) Size() uint64 { return p.size }

// End returns one past the last simulated address.
func (p *Page) End() uint64 { return p.start + p.size }

// Class returns the page's size class.
//
//hcsgc:alloc-free
func (p *Page) Class() Class { return p.class }

// Contains reports whether addr falls inside the page.
func (p *Page) Contains(addr uint64) bool { return addr >= p.start && addr < p.End() }

// WordIndex converts a simulated address within the page to a word offset.
//
//hcsgc:alloc-free
func (p *Page) WordIndex(addr uint64) uint64 { return (addr - p.start) / WordSize }

// AllocRaw bump-allocates size bytes (word aligned), returning the object
// address or 0 when the page is full. Safe for concurrent use. A lost race
// counts as a retry of the heap.pageBump site; a completed bump is counted
// by the caller, who tallies its own and folds them in (Heap.CountPageBumps):
// one shared counter bumped per allocation and relocation copy is a line
// every mutator and GC worker fights over.
func (p *Page) AllocRaw(size uint64) uint64 {
	size = (size + WordSize - 1) &^ uint64(WordSize-1)
	for {
		old := p.top.Load()
		if old+size > p.End() {
			return 0
		}
		if p.top.CompareAndSwap(old, old+size) {
			return old
		}
		p.casAlloc.Retry()
	}
}

// UndoAlloc returns the most recent allocation if nothing allocated after
// it; used by relocation losers to give back their discarded copy. Reports
// whether the space was reclaimed.
func (p *Page) UndoAlloc(addr, size uint64) bool {
	size = (size + WordSize - 1) &^ uint64(WordSize-1)
	p.inj.At(faultinject.UndoAllocPre, addr)
	if p.top.Load() != addr+size {
		return false
	}
	// Scrub the discarded copy before handing the space back: allocation
	// writes only the object header and relies on page memory being zero
	// (fields start as null refs), so the region must not keep the loser
	// copy's stale reference words. The copy is still private here — its
	// address lost the forwarding race and was never published — whereas
	// after the CAS below a concurrent AllocRaw may reuse the region
	// immediately.
	base := p.WordIndex(addr)
	for i := uint64(0); i < size/WordSize; i++ {
		p.storeWord(base+i, 0)
	}
	p.inj.At(faultinject.UndoAllocPost, addr)
	return p.top.CompareAndSwap(addr+size, addr)
}

// UsedBytes returns the bytes consumed by the bump pointer.
func (p *Page) UsedBytes() uint64 { return p.top.Load() - p.start }

// FreeBytes returns the bytes remaining for allocation.
func (p *Page) FreeBytes() uint64 { return p.End() - p.top.Load() }

// loadWord/storeWord/casWord operate on the backing store with atomic
// semantics so that application-level races and concurrent GC copying are
// well defined for Go's race detector.

func (p *Page) loadWord(idx uint64) uint64 {
	return atomic.LoadUint64(&p.words[idx])
}

func (p *Page) storeWord(idx uint64, v uint64) {
	atomic.StoreUint64(&p.words[idx], v)
}

func (p *Page) casWord(idx uint64, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&p.words[idx], old, new)
}

// MarkLive sets the live bit for the object at addr of the given byte
// size; returns true if this call marked it (first marker wins and
// accounts the live bytes). Parallel-mark hot path: alloc-free.
//
//hcsgc:alloc-free
func (p *Page) MarkLive(addr, size uint64) bool {
	if !p.livemap.TestAndSet(int(p.WordIndex(addr))) {
		return false
	}
	p.liveBytes.Add(size)
	p.liveObjects.Add(1)
	return true
}

// IsLive reports whether the object at addr was marked in this cycle.
func (p *Page) IsLive(addr uint64) bool {
	return p.livemap.Get(int(p.WordIndex(addr)))
}

// MarkHot sets the hot bit for the object at addr (paper §3.1.2); returns
// true if this call set it, in which case the caller's size is added to
// the page's hot bytes. Barrier/mark hot path: alloc-free.
//
//hcsgc:alloc-free
func (p *Page) MarkHot(addr, size uint64) bool {
	if !p.hotmap.TestAndSet(int(p.WordIndex(addr))) {
		return false
	}
	p.hotBytes.Add(size)
	return true
}

// IsHot reports whether the object at addr is flagged hot.
func (p *Page) IsHot(addr uint64) bool {
	return p.hotmap.Get(int(p.WordIndex(addr)))
}

// ResetMarks clears livemap, hotmap and the per-page accumulators. Called
// at mark start, which "renders all objects cold effectively" (§3.1.2).
func (p *Page) ResetMarks() {
	p.livemap.Clear()
	p.hotmap.Clear()
	p.liveBytes.Store(0)
	p.hotBytes.Store(0)
	p.liveObjects.Store(0)
}

// LiveBytes returns the bytes of marked objects.
func (p *Page) LiveBytes() uint64 { return p.liveBytes.Load() }

// HotBytes returns the bytes of hot-marked objects.
func (p *Page) HotBytes() uint64 { return p.hotBytes.Load() }

// ColdBytes returns live bytes minus hot bytes. Hot objects are always a
// subset of live objects (both are recorded during the same mark).
func (p *Page) ColdBytes() uint64 {
	lb, hb := p.liveBytes.Load(), p.hotBytes.Load()
	if hb > lb {
		return 0
	}
	return lb - hb
}

// LiveObjects returns the marked object count.
func (p *Page) LiveObjects() int64 { return p.liveObjects.Load() }

// LiveRatio returns live bytes over page size.
func (p *Page) LiveRatio() float64 { return float64(p.LiveBytes()) / float64(p.size) }

// WeightedLiveBytes implements the paper's §3.1.3 formula:
//
//	WLB = cold bytes                                  if hot bytes == 0
//	WLB = hot bytes + cold bytes * (1 - coldConf)     otherwise
func (p *Page) WeightedLiveBytes(coldConfidence float64) uint64 {
	hot, cold := p.HotBytes(), p.ColdBytes()
	if hot == 0 {
		return cold
	}
	return hot + uint64(float64(cold)*(1-coldConfidence))
}

// SelectForEvacuation installs a forwarding table sized for the page's
// live-object count and flags the page as an evacuation candidate.
func (p *Page) SelectForEvacuation() {
	n := int(p.liveObjects.Load())
	t := NewForwardTable(n)
	t.cas = p.casFwd
	p.fwd.Store(t)
	p.remaining.Store(int64(n))
	p.inEC.Store(true)
}

// InEC reports whether the page is an evacuation candidate.
func (p *Page) InEC() bool { return p.inEC.Load() }

// Forwarding returns the page's forwarding table, or nil when the page is
// not (or no longer) an evacuation candidate of the current era.
//
//hcsgc:alloc-free
func (p *Page) Forwarding() *ForwardTable { return p.fwd.Load() }

// ObjectRelocated decrements the not-yet-relocated count and reports
// whether this was the last live object (page now fully evacuated).
func (p *Page) ObjectRelocated() bool {
	return p.remaining.Add(-1) == 0
}

// Remaining returns the number of live objects still to relocate.
func (p *Page) Remaining() int64 { return p.remaining.Load() }

// MarkFreed flags the page as recycled.
func (p *Page) MarkFreed() { p.freed.Store(true) }

// Freed reports whether the page has been recycled.
func (p *Page) Freed() bool { return p.freed.Load() }

// drop releases the page's host memory — forwarding table, backing store
// and bitmaps — to the arena (Heap.DropPage, Heap.Release). Idempotent.
//
// The arena scrubs what it takes in, and only as far as the bump pointer
// ever got: nothing is stored or marked above top, and UndoAlloc zeroes
// what it gives back.
func (p *Page) drop() {
	if t := p.fwd.Swap(nil); t != nil {
		t.release()
	}
	p.inEC.Store(false)
	if p.words == nil {
		return
	}
	if p.class != ClassLarge {
		used := int(p.UsedBytes() / WordSize)
		arena.Words.Put(p.words, used)
		p.livemap.release(used)
		p.hotmap.release(used)
	}
	p.words, p.livemap, p.hotmap = nil, nil, nil
}

// Livemap exposes the page's live bitmap for the relocation drain, which
// walks live objects in address order.
func (p *Page) Livemap() *Bitmap { return p.livemap }

// Hotmap exposes the page's hot bitmap for the STW verifier's
// hotmap ⊆ livemap check.
func (p *Page) Hotmap() *Bitmap { return p.hotmap }

// String summarises the page for logs.
func (p *Page) String() string {
	return fmt.Sprintf("page{%s %#x+%dK live=%d hot=%d}",
		p.class, p.start, p.size>>10, p.LiveBytes(), p.HotBytes())
}

// ClassFor returns the page class for an object of the given byte size.
func ClassFor(size uint64) Class {
	switch {
	case size <= SmallObjectMax:
		return ClassSmall
	case size <= MediumObjectMax:
		return ClassMedium
	default:
		return ClassLarge
	}
}
