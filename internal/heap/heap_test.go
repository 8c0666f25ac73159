package heap

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"hcsgc/internal/simmem"
)

func testHeap() *Heap {
	return New(Config{MaxBytes: 512 << 20}, nil)
}

func TestHeapDefaults(t *testing.T) {
	h := New(Config{}, nil)
	if h.Config().MaxBytes != 256<<20 {
		t.Fatalf("default MaxBytes = %d", h.Config().MaxBytes)
	}
	if h.Config().AddrSpaceBytes != 512<<30 {
		t.Fatalf("default AddrSpaceBytes = %d", h.Config().AddrSpaceBytes)
	}
}

func TestAllocPageBasics(t *testing.T) {
	h := testHeap()
	p, err := h.AllocPage(ClassSmall)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != SmallPageSize || p.Class() != ClassSmall {
		t.Fatalf("bad page %v", p)
	}
	if p.Start() == 0 {
		t.Fatal("page must not start at address 0 (null)")
	}
	if p.Start()%Granule != 0 {
		t.Fatalf("page start %#x not granule aligned", p.Start())
	}
	if h.UsedBytes() != SmallPageSize {
		t.Fatalf("UsedBytes = %d", h.UsedBytes())
	}
	if got := h.PageOf(p.Start() + 100); got != p {
		t.Fatal("PageOf must find the page")
	}
}

func TestAllocMediumPage(t *testing.T) {
	h := testHeap()
	p, err := h.AllocPage(ClassMedium)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != MediumPageSize {
		t.Fatalf("size = %d", p.Size())
	}
	// All granules of a multi-granule page resolve to it.
	for off := uint64(0); off < MediumPageSize; off += Granule {
		if h.PageOf(p.Start()+off) != p {
			t.Fatalf("PageOf(start+%d) missed", off)
		}
	}
}

func TestAllocLargePageRounding(t *testing.T) {
	h := testHeap()
	p, err := h.AllocLargePage(5 << 20) // 5MB -> 6MB (3 granules)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 6<<20 {
		t.Fatalf("large page size = %d, want 6MB", p.Size())
	}
	if p.Class() != ClassLarge {
		t.Fatal("class must be large")
	}
}

func TestAllocPageRejectsLargeClass(t *testing.T) {
	h := testHeap()
	if _, err := h.AllocPage(ClassLarge); err == nil {
		t.Fatal("AllocPage(ClassLarge) must error")
	}
}

func TestTinyClassGated(t *testing.T) {
	h := testHeap()
	if _, err := h.AllocPage(ClassTiny); err == nil {
		t.Fatal("tiny class must be rejected when disabled")
	}
	h2 := New(Config{MaxBytes: 64 << 20, EnableTinyClass: true}, nil)
	p, err := h2.AllocPage(ClassTiny)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != TinyPageSize {
		t.Fatalf("tiny page size = %d", p.Size())
	}
}

func TestHeapFull(t *testing.T) {
	h := New(Config{MaxBytes: 4 << 20}, nil)
	if _, err := h.AllocPage(ClassSmall); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AllocPage(ClassSmall); err != nil {
		t.Fatal(err)
	}
	_, err := h.AllocPage(ClassSmall)
	if !errors.Is(err, ErrHeapFull) {
		t.Fatalf("err = %v, want ErrHeapFull", err)
	}
}

func TestFreePageReleasesBudget(t *testing.T) {
	h := New(Config{MaxBytes: 4 << 20}, nil)
	p1, _ := h.AllocPage(ClassSmall)
	h.AllocPage(ClassSmall)
	h.FreePage(p1)
	if h.UsedBytes() != SmallPageSize {
		t.Fatalf("UsedBytes after free = %d", h.UsedBytes())
	}
	if _, err := h.AllocPage(ClassSmall); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
	// Double free is a no-op.
	h.FreePage(p1)
	if h.UsedBytes() != 2*SmallPageSize {
		t.Fatal("double free must not double-release")
	}
}

func TestFreedPageStillReadable(t *testing.T) {
	// In ZGC a recycled page's forwarding table (and, here, backing) must
	// stay usable until next mark end.
	h := testHeap()
	p, _ := h.AllocPage(ClassSmall)
	a := p.AllocRaw(32)
	h.StoreWord(nil, a, 0xabcd)
	h.FreePage(p)
	if got := h.LoadWord(nil, a); got != 0xabcd {
		t.Fatalf("freed page read = %#x, want 0xabcd", got)
	}
	if h.PageOf(a) != p {
		t.Fatal("freed page must remain in page table until dropped")
	}
}

func TestAddressesNeverReused(t *testing.T) {
	h := testHeap()
	p1, _ := h.AllocPage(ClassSmall)
	h.FreePage(p1)
	h.DropPage(p1)
	p2, _ := h.AllocPage(ClassSmall)
	if p2.Start() == p1.Start() {
		t.Fatal("address ranges must be monotonic, never reused")
	}
	if p2.Seq <= p1.Seq {
		t.Fatal("page sequence numbers must increase")
	}
}

func TestAddressSpaceExhaustion(t *testing.T) {
	h := New(Config{MaxBytes: 1 << 30, AddrSpaceBytes: 8 << 20}, nil)
	var err error
	for i := 0; i < 10; i++ {
		if _, err = h.AllocPage(ClassSmall); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrAddressSpace) {
		t.Fatalf("err = %v, want ErrAddressSpace", err)
	}
}

func TestPageOfUnmapped(t *testing.T) {
	h := testHeap()
	if h.PageOf(0) != nil {
		t.Fatal("address 0 must be unmapped")
	}
	if h.PageOf(^uint64(0)) != nil {
		t.Fatal("out-of-range address must be unmapped")
	}
}

func TestLoadStoreWord(t *testing.T) {
	h := testHeap()
	p, _ := h.AllocPage(ClassSmall)
	a := p.AllocRaw(64)
	h.StoreWord(nil, a, 123)
	h.StoreWord(nil, a+8, 456)
	if h.LoadWord(nil, a) != 123 || h.LoadWord(nil, a+8) != 456 {
		t.Fatal("load/store roundtrip failed")
	}
}

// TestLoadStoreWords: a word run reads and writes what the per-word calls
// do, charges the core the same counts, and refuses to leave its page.
func TestLoadStoreWords(t *testing.T) {
	mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
	runs, words := mem.NewCore(), mem.NewCore()
	h := New(Config{MaxBytes: 64 << 20}, mem)
	p, _ := h.AllocPage(ClassSmall)
	a := p.AllocRaw(40*WordSize) + 3*WordSize
	src := make([]uint64, 30)
	for i := range src {
		src[i] = uint64(i) * 7
	}
	h.StoreWords(runs, a, src)
	dst := make([]uint64, len(src))
	h.LoadWords(runs, a, dst)
	for i := range src {
		if got := h.LoadWord(words, a+uint64(i)*WordSize); got != src[i] || dst[i] != src[i] {
			t.Fatalf("word %d: LoadWord %d, LoadWords %d, want %d", i, got, dst[i], src[i])
		}
		h.StoreWord(words, a+uint64(i)*WordSize, src[i])
	}
	if r, w := runs.Stats(), words.Stats(); r.Loads != w.Loads || r.Stores != w.Stores || r.Loads != 30 {
		t.Fatalf("runs charged loads/stores %d/%d, words %d/%d", r.Loads, r.Stores, w.Loads, w.Stores)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a run past its page's end must panic")
		}
	}()
	h.LoadWords(nil, p.End()-WordSize, dst[:2])
}

func TestCASWord(t *testing.T) {
	h := testHeap()
	p, _ := h.AllocPage(ClassSmall)
	a := p.AllocRaw(8)
	h.StoreWord(nil, a, 1)
	if !h.CASWord(nil, a, 1, 2) {
		t.Fatal("CAS with correct old must succeed")
	}
	if h.CASWord(nil, a, 1, 3) {
		t.Fatal("CAS with stale old must fail")
	}
	if h.LoadWord(nil, a) != 2 {
		t.Fatal("CAS result wrong")
	}
}

func TestAccessesFeedCacheModel(t *testing.T) {
	mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
	core := mem.NewCore()
	h := New(Config{MaxBytes: 64 << 20}, mem)
	p, _ := h.AllocPage(ClassSmall)
	a := p.AllocRaw(64)
	h.StoreWord(core, a, 7)
	h.LoadWord(core, a)
	st := core.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("cache model saw loads=%d stores=%d, want 1/1", st.Loads, st.Stores)
	}
	if st.Cycles == 0 {
		t.Fatal("accesses must cost cycles")
	}
}

func TestCopyObject(t *testing.T) {
	h := testHeap()
	p1, _ := h.AllocPage(ClassSmall)
	p2, _ := h.AllocPage(ClassSmall)
	src := p1.AllocRaw(32)
	dst := p2.AllocRaw(32)
	for i := uint64(0); i < 4; i++ {
		h.StoreWord(nil, src+i*8, 100+i)
	}
	h.CopyObject(nil, src, dst, 32)
	for i := uint64(0); i < 4; i++ {
		if got := h.LoadWord(nil, dst+i*8); got != 100+i {
			t.Fatalf("word %d = %d, want %d", i, got, 100+i)
		}
	}
}

func TestLivePagesIteration(t *testing.T) {
	h := testHeap()
	p1, _ := h.AllocPage(ClassSmall)
	p2, _ := h.AllocPage(ClassSmall)
	h.FreePage(p1)
	var seen []*Page
	h.LivePages(func(p *Page) { seen = append(seen, p) })
	if len(seen) != 1 || seen[0] != p2 {
		t.Fatalf("LivePages saw %d pages", len(seen))
	}
}

func TestUsedPercent(t *testing.T) {
	h := New(Config{MaxBytes: 8 << 20}, nil)
	h.AllocPage(ClassSmall)
	if got := h.UsedPercent(); got != 25 {
		t.Fatalf("UsedPercent = %v, want 25", got)
	}
}

func TestBackingPoolReuse(t *testing.T) {
	h := testHeap()
	p1, _ := h.AllocPage(ClassSmall)
	a := p1.AllocRaw(32)
	h.StoreWord(nil, a, 0xff)
	h.FreePage(p1)
	h.DropPage(p1)
	// New page may reuse the pooled backing; it must be zeroed.
	p2, _ := h.AllocPage(ClassSmall)
	b := p2.AllocRaw(32)
	if got := h.LoadWord(nil, b); got != 0 {
		t.Fatalf("reused backing not zeroed: %#x", got)
	}
}

// TestRecycledBackingIsZero: pages are scrubbed when they are dropped, not
// when they are allocated, and only up to the bump pointer. So a backing
// must be all zero once DropPage has put it in the pool — after plain
// allocation, after an UndoAlloc that gave the top of the extent back, and
// after one that failed and left a discarded copy below top — and every page
// allocated afterwards, from the pool or fresh, must read zero everywhere.
func TestRecycledBackingIsZero(t *testing.T) {
	for _, class := range []Class{ClassSmall, ClassMedium} {
		h := New(Config{MaxBytes: 1 << 30}, nil)
		p, err := h.AllocPage(class)
		if err != nil {
			t.Fatal(err)
		}
		dirty := func(addr, size uint64) {
			for a := addr; a < addr+size; a += WordSize {
				h.StoreWord(nil, a, ^uint64(0))
			}
		}
		first := p.AllocRaw(4096)
		dirty(first, 4096)
		stranded := p.AllocRaw(256) // a loser copy whose undo fails
		dirty(stranded, 256)
		far := p.AllocRaw(p.FreeBytes() / 2)
		dirty(far, 64)
		if p.UndoAlloc(stranded, 256) {
			t.Fatal("UndoAlloc of a non-top allocation succeeded")
		}
		undone := p.AllocRaw(512) // a loser copy whose undo succeeds
		dirty(undone, 512)
		if !p.UndoAlloc(undone, 512) {
			t.Fatal("UndoAlloc of the top allocation failed")
		}
		backing := p.words
		h.FreePage(p)
		h.DropPage(p)
		for i, w := range backing {
			if w != 0 {
				t.Fatalf("%v page: word %d of the dropped backing = %#x, want 0", class, i, w)
			}
		}
		for _, alloc := range []func(Class) (*Page, error){h.AllocPage, h.AllocPageForced} {
			q, err := alloc(class)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range q.words {
				if w != 0 {
					t.Fatalf("%v page: word %d of a page allocated after the drop = %#x, want 0", class, i, w)
				}
			}
		}
	}
}

func TestConcurrentPageAllocation(t *testing.T) {
	h := New(Config{MaxBytes: 1 << 30}, nil)
	const goroutines = 8
	pages := make([][]*Page, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p, err := h.AllocPage(ClassSmall)
				if err != nil {
					t.Errorf("alloc failed: %v", err)
					return
				}
				pages[id] = append(pages[id], p)
			}
		}(g)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, list := range pages {
		for _, p := range list {
			if seen[p.Start()] {
				t.Fatalf("page start %#x handed out twice", p.Start())
			}
			seen[p.Start()] = true
		}
	}
	if h.PagesAllocated.Load() != goroutines*20 {
		t.Fatalf("PagesAllocated = %d", h.PagesAllocated.Load())
	}
}

func TestWriteHeapMap(t *testing.T) {
	h := testHeap()
	p, _ := h.AllocPage(ClassSmall)
	a := p.AllocRaw(1024)
	p.MarkLive(a, 1024)
	p.MarkHot(a, 1024)
	var buf bytes.Buffer
	h.WriteHeapMap(&buf)
	out := buf.String()
	if !strings.Contains(out, "small") || !strings.Contains(out, "pages") {
		t.Fatalf("heap map missing content:\n%s", out)
	}
}

func TestRenderBar(t *testing.T) {
	// Full hot page: all '+'; empty page: all spaces.
	if got := renderBar(1, 1, 1, 4); got != "++++" {
		t.Fatalf("hot bar = %q", got)
	}
	if got := renderBar(0, 0, 0, 4); got != "    " {
		t.Fatalf("empty bar = %q", got)
	}
	// Half used, quarter live, no hot.
	got := renderBar(0.5, 0.25, 0, 4)
	if got != "#.  " {
		t.Fatalf("mixed bar = %q", got)
	}
	// Out-of-range inputs clamp rather than panic.
	renderBar(2, -1, 5, 8)
}
