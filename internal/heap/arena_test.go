package heap

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"hcsgc/internal/arena"
	"hcsgc/internal/simmem"
)

// arenaModel follows every slab the arena has handed to a page or table
// that has not been dropped since: the memory a second hand-out would
// corrupt.
type arenaModel struct {
	t     *testing.T
	inUse map[any]string // first element's address -> owner
}

// took checks a slab fresh from the arena: it reads zero everywhere and
// nobody else holds it.
func took[T comparable](m *arenaModel, s []T, owner string) {
	m.t.Helper()
	var zero T
	for i := range s {
		if s[i] != zero {
			m.t.Fatalf("%s: element %d of %d not zero: %v", owner, i, len(s), s[i])
		}
	}
	if len(s) == 0 {
		return
	}
	if prev, dup := m.inUse[&s[0]]; dup {
		m.t.Fatalf("%s was handed a slab still held by %s", owner, prev)
	}
	m.inUse[&s[0]] = owner
}

func gave[T any](m *arenaModel, s []T) {
	if len(s) > 0 {
		delete(m.inUse, &s[0])
	}
}

// modelPage is a page plus what the test did to it.
type modelPage struct {
	p       *Page
	objs    []uint64 // allocated object addresses (each objBytes long)
	marked  []uint64
	freed   bool
	evacSet bool
}

const modelObjBytes = 64

func (m *arenaModel) tookPage(mp *modelPage, owner string) {
	took(m, mp.p.words, owner+" backing")
	took(m, mp.p.livemap.words, owner+" livemap")
	took(m, mp.p.hotmap.words, owner+" hotmap")
}

func (m *arenaModel) gavePage(mp *modelPage) {
	gave(m, mp.p.words)
	if mp.p.livemap != nil {
		gave(m, mp.p.livemap.words)
		gave(m, mp.p.hotmap.words)
	}
	if t := mp.p.Forwarding(); t != nil {
		gave(m, t.slots)
	}
}

// tookTable is took for a forwarding table, whose slots are atomics.
func (m *arenaModel) tookTable(t *ForwardTable, owner string) {
	m.t.Helper()
	for i := range t.slots {
		if k, v := t.slots[i].key.Load(), t.slots[i].val.Load(); k != 0 || v != 0 {
			m.t.Fatalf("%s: slot %d of %d not zero: key %#x val %#x", owner, i, len(t.slots), k, v)
		}
	}
	if prev, dup := m.inUse[&t.slots[0]]; dup {
		m.t.Fatalf("%s was handed a slab still held by %s", owner, prev)
	}
	m.inUse[&t.slots[0]] = owner
}

// cacheTags returns the tag arrays of a hierarchy's shared LLC and of each
// core's L1 and L2: the word slabs it draws from the arena. They are
// unexported, so the test reads them by reflection.
func cacheTags(mem *simmem.Hierarchy) [][]uint64 {
	v := reflect.ValueOf(mem).Elem()
	caches := []reflect.Value{v.FieldByName("llc")}
	for cores, i := v.FieldByName("cores"), 0; i < cores.Len(); i++ {
		c := cores.Index(i).Elem()
		caches = append(caches, c.FieldByName("l1"), c.FieldByName("l2"))
	}
	var out [][]uint64
	for _, c := range caches {
		tags := c.Elem().FieldByName("tags")
		out = append(out, unsafe.Slice((*uint64)(tags.UnsafePointer()), tags.Len()))
	}
	return out
}

// TestArenaHandsOutZeroedUnsharedSlabs drives two runtimes' heaps and
// memory hierarchies, all sharing the arena, through random lifecycles —
// allocation, stores priced by a core, undone allocations, marking,
// evacuation set-up, forwarding inserts, free, drop, cores joining and
// whole-run release — and checks the two things everything built on the
// arena assumes: whatever it hands out reads zero, and it never hands out
// memory somebody still holds. Heaps and hierarchies take slabs of the
// same lengths: an L2's tags and a small page's bitmap are 4,096 words, the
// LLC's tags and a medium page's bitmap 65,536.
func TestArenaHandsOutZeroedUnsharedSlabs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ResetArena()
		rng := rand.New(rand.NewSource(seed))
		m := &arenaModel{t: t, inUse: make(map[any]string)}
		newCore := func(mem *simmem.Hierarchy) *simmem.Core {
			c := mem.NewCore()
			tags := cacheTags(mem)
			took(m, tags[len(tags)-2], "a core's L1 tags")
			took(m, tags[len(tags)-1], "a core's L2 tags")
			return c
		}
		newHeap := func() (*Heap, []*simmem.Core) {
			mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
			took(m, cacheTags(mem)[0], "an LLC's tags")
			h := New(Config{MaxBytes: 1 << 30}, mem)
			for g := range h.pageTable {
				if h.pageTable[g].Load() != nil {
					t.Fatalf("new heap: granule %d of the page table already mapped", g)
				}
			}
			if prev, dup := m.inUse[&h.pageTable[0]]; dup {
				t.Fatalf("new heap was handed a page table still held by %s", prev)
			}
			m.inUse[&h.pageTable[0]] = "a heap's page table"
			return h, []*simmem.Core{newCore(mem)}
		}
		var heaps [2]*Heap
		var cores [2][]*simmem.Core
		for i := range heaps {
			heaps[i], cores[i] = newHeap()
		}
		pages := [2][]*modelPage{}

		pick := func(hi int, want func(*modelPage) bool) *modelPage {
			var cands []*modelPage
			for _, mp := range pages[hi] {
				if want(mp) {
					cands = append(cands, mp)
				}
			}
			if len(cands) == 0 {
				return nil
			}
			return cands[rng.Intn(len(cands))]
		}
		drop := func(hi int, mp *modelPage) {
			m.gavePage(mp)
			heaps[hi].DropPage(mp.p)
			for i, q := range pages[hi] {
				if q == mp {
					pages[hi] = append(pages[hi][:i], pages[hi][i+1:]...)
					break
				}
			}
		}
		live := func(mp *modelPage) bool { return !mp.freed }
		// taken counts commits per class: the arena keys its free lists
		// by length, so every seed must mix two page lengths.
		taken := map[Class]int{}

		for step := 0; step < 600; step++ {
			hi := rng.Intn(2)
			h := heaps[hi]
			core := cores[hi][step%len(cores[hi])]
			switch op := rng.Intn(21); {
			case op < 4: // commit a page
				class := ClassSmall
				if rng.Intn(6) == 0 && rng.Intn(4) == 0 {
					class = ClassMedium // medium pages are 32 MB of checking each
				}
				taken[class]++
				alloc := h.AllocPage
				if rng.Intn(2) == 0 {
					alloc = h.AllocPageForced
				}
				p, err := alloc(class)
				if err != nil {
					t.Fatal(err)
				}
				mp := &modelPage{p: p}
				m.tookPage(mp, p.String())
				pages[hi] = append(pages[hi], mp)
			case op < 9: // allocate objects and fill them
				mp := pick(hi, live)
				if mp == nil {
					continue
				}
				for n := rng.Intn(200); n > 0; n-- {
					addr := mp.p.AllocRaw(modelObjBytes)
					if addr == 0 {
						break
					}
					for off := uint64(0); off < modelObjBytes; off += WordSize {
						h.StoreWord(core, addr+off, rng.Uint64()|1)
					}
					mp.objs = append(mp.objs, addr)
				}
			case op < 11: // a relocation copy that lost its race
				mp := pick(hi, live)
				if mp == nil {
					continue
				}
				size := uint64(8 + 8*rng.Intn(64))
				if addr := mp.p.AllocRaw(size); addr != 0 {
					for off := uint64(0); off < size; off += WordSize {
						h.StoreWord(core, addr+off, ^uint64(0))
					}
					if !mp.p.UndoAlloc(addr, size) {
						t.Fatal("UndoAlloc of the top allocation failed")
					}
				}
			case op < 14: // mark
				mp := pick(hi, func(mp *modelPage) bool { return live(mp) && !mp.evacSet && len(mp.objs) > 0 })
				if mp == nil {
					continue
				}
				for n := 1 + rng.Intn(100); n > 0; n-- {
					addr := mp.objs[rng.Intn(len(mp.objs))]
					if mp.p.MarkLive(addr, modelObjBytes) {
						mp.marked = append(mp.marked, addr)
					}
					if rng.Intn(2) == 0 {
						mp.p.MarkHot(addr, modelObjBytes)
					}
				}
			case op < 16: // select for evacuation, relocate some
				mp := pick(hi, func(mp *modelPage) bool { return live(mp) && !mp.evacSet && len(mp.marked) > 0 })
				if mp == nil {
					continue
				}
				mp.p.SelectForEvacuation()
				mp.evacSet = true
				fwd := mp.p.Forwarding()
				m.tookTable(fwd, mp.p.String()+" forwarding")
				for _, addr := range mp.marked {
					if rng.Intn(3) > 0 {
						fwd.Insert(mp.p.WordIndex(addr), addr+1<<40)
					}
				}
			case op < 17: // free
				if mp := pick(hi, live); mp != nil {
					h.FreePage(mp.p)
					mp.freed = true
				}
			case op < 19: // drop, usually after free as the collector does
				mp := pick(hi, func(mp *modelPage) bool { return mp.freed || rng.Intn(4) == 0 })
				if mp != nil {
					drop(hi, mp)
				}
			case op < 20: // a thread attaches: one more core
				if len(cores[hi]) < 4 {
					cores[hi] = append(cores[hi], newCore(h.Mem()))
				}
			case rng.Intn(4) == 0: // the run ends: release everything, start the next
				for _, mp := range pages[hi] {
					m.gavePage(mp)
				}
				gave(m, h.pageTable)
				for _, tags := range cacheTags(h.Mem()) {
					gave(m, tags)
				}
				h.Release()
				h.Mem().Release()
				pages[hi] = nil
				heaps[hi], cores[hi] = newHeap()
			}
		}
		if taken[ClassSmall] == 0 || taken[ClassMedium] == 0 {
			t.Fatalf("seed %d committed %v: want both small and medium pages", seed, taken)
		}
	}
}

// TestReleaseIsIdempotentAndLeavesLargePagesOut: large pages come in
// free-form sizes and must not enter the arena, and a second Release (or a
// DropPage after it) finds nothing left to hand over.
func TestReleaseIsIdempotentAndLeavesLargePagesOut(t *testing.T) {
	ResetArena()
	h := testHeap()
	large, err := h.AllocLargePage(5 << 20)
	if err != nil {
		t.Fatal(err)
	}
	small, err := h.AllocPage(ClassSmall)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release()
	h.DropPage(small)
	h.DropPage(large)
	for n, held := range arena.Words.Held() {
		switch n {
		case SmallPageSize / WordSize: // the backing
			if held != 1 {
				t.Errorf("%d small backings in the arena, want 1", held)
			}
		case SmallPageSize / WordSize / 64: // livemap and hotmap
			if held != 2 {
				t.Errorf("%d small-page bitmaps in the arena, want 2", held)
			}
		default:
			t.Errorf("arena holds %d slabs of %d words; only the small page's may be there", held, n)
		}
	}
}
