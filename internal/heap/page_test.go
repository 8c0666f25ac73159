package heap

import (
	"sync"
	"testing"
)

func testPage(class Class) *Page {
	size := uint64(SmallPageSize)
	if class == ClassMedium {
		size = MediumPageSize
	}
	return newPage(Granule, size, class, 1)
}

func TestPageSizeClassesMatchTable1(t *testing.T) {
	// Table 1 of the paper.
	if SmallPageSize != 2<<20 {
		t.Errorf("small page = %d, want 2MB", SmallPageSize)
	}
	if SmallObjectMax != 256<<10 {
		t.Errorf("small object max = %d, want 256KB", SmallObjectMax)
	}
	if MediumPageSize != 32<<20 {
		t.Errorf("medium page = %d, want 32MB", MediumPageSize)
	}
	if MediumObjectMax != 4<<20 {
		t.Errorf("medium object max = %d, want 4MB", MediumObjectMax)
	}
	if Granule != 2<<20 {
		t.Errorf("granule = %d, want 2MB (large pages are Nx2MB)", Granule)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		size uint64
		want Class
	}{
		{8, ClassSmall},
		{SmallObjectMax, ClassSmall},
		{SmallObjectMax + 1, ClassMedium},
		{MediumObjectMax, ClassMedium},
		{MediumObjectMax + 1, ClassLarge},
		{64 << 20, ClassLarge},
	}
	for _, tc := range cases {
		if got := ClassFor(tc.size); got != tc.want {
			t.Errorf("ClassFor(%d) = %v, want %v", tc.size, got, tc.want)
		}
	}
}

func TestPageBumpAllocation(t *testing.T) {
	p := testPage(ClassSmall)
	a1 := p.AllocRaw(32)
	a2 := p.AllocRaw(32)
	if a1 == 0 || a2 == 0 {
		t.Fatal("allocations should succeed")
	}
	if a2 != a1+32 {
		t.Fatalf("bump allocation not contiguous: %#x then %#x", a1, a2)
	}
	if p.UsedBytes() != 64 {
		t.Fatalf("UsedBytes = %d, want 64", p.UsedBytes())
	}
}

func TestPageAllocAlignment(t *testing.T) {
	p := testPage(ClassSmall)
	a1 := p.AllocRaw(13) // rounds to 16
	a2 := p.AllocRaw(8)
	if a2 != a1+16 {
		t.Fatalf("13-byte alloc should round to 16: %#x then %#x", a1, a2)
	}
	if a1%WordSize != 0 || a2%WordSize != 0 {
		t.Fatal("allocations must be word aligned")
	}
}

func TestPageAllocExhaustion(t *testing.T) {
	p := testPage(ClassSmall)
	n := 0
	for p.AllocRaw(SmallObjectMax) != 0 {
		n++
	}
	if n != SmallPageSize/SmallObjectMax {
		t.Fatalf("allocated %d max-size objects, want %d", n, SmallPageSize/SmallObjectMax)
	}
	if p.AllocRaw(8) != 0 {
		t.Fatal("full page must refuse allocation")
	}
	if p.FreeBytes() != 0 {
		t.Fatalf("FreeBytes = %d on full page", p.FreeBytes())
	}
}

func TestPageUndoAlloc(t *testing.T) {
	p := testPage(ClassSmall)
	a := p.AllocRaw(64)
	if !p.UndoAlloc(a, 64) {
		t.Fatal("undo of latest allocation must succeed")
	}
	if got := p.AllocRaw(64); got != a {
		t.Fatalf("space not reclaimed: got %#x, want %#x", got, a)
	}
	// Undo fails if someone allocated after us.
	b := p.AllocRaw(32)
	p.AllocRaw(32)
	if p.UndoAlloc(b, 32) {
		t.Fatal("undo with later allocation must fail")
	}
}

func TestPageConcurrentAllocNoOverlap(t *testing.T) {
	p := testPage(ClassSmall)
	const goroutines = 8
	const perG = 1000
	addrs := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		addrs[g] = make([]uint64, 0, perG)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if a := p.AllocRaw(32); a != 0 {
					addrs[id] = append(addrs[id], a)
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, list := range addrs {
		for _, a := range list {
			if seen[a] {
				t.Fatalf("address %#x allocated twice", a)
			}
			seen[a] = true
			if a%WordSize != 0 || !p.Contains(a) {
				t.Fatalf("bad address %#x", a)
			}
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("allocated %d, want %d", len(seen), goroutines*perG)
	}
}

func TestPageMarkLiveAccounting(t *testing.T) {
	p := testPage(ClassSmall)
	a := p.AllocRaw(32)
	b := p.AllocRaw(64)
	if !p.MarkLive(a, 32) {
		t.Fatal("first MarkLive must win")
	}
	if p.MarkLive(a, 32) {
		t.Fatal("second MarkLive must lose")
	}
	p.MarkLive(b, 64)
	if p.LiveBytes() != 96 || p.LiveObjects() != 2 {
		t.Fatalf("live=%d objects=%d, want 96/2", p.LiveBytes(), p.LiveObjects())
	}
	if !p.IsLive(a) || !p.IsLive(b) {
		t.Fatal("IsLive must reflect marks")
	}
	wantRatio := 96.0 / float64(SmallPageSize)
	if got := p.LiveRatio(); got != wantRatio {
		t.Fatalf("LiveRatio = %v, want %v", got, wantRatio)
	}
}

func TestPageHotColdAccounting(t *testing.T) {
	p := testPage(ClassSmall)
	a := p.AllocRaw(32)
	b := p.AllocRaw(32)
	c := p.AllocRaw(64)
	for _, obj := range []struct{ addr, size uint64 }{{a, 32}, {b, 32}, {c, 64}} {
		p.MarkLive(obj.addr, obj.size)
	}
	p.MarkHot(a, 32)
	if p.MarkHot(a, 32) {
		t.Fatal("second MarkHot must lose")
	}
	if p.HotBytes() != 32 {
		t.Fatalf("HotBytes = %d, want 32", p.HotBytes())
	}
	if p.ColdBytes() != 96 {
		t.Fatalf("ColdBytes = %d, want 96", p.ColdBytes())
	}
	if !p.IsHot(a) || p.IsHot(b) {
		t.Fatal("IsHot wrong")
	}
}

func TestWeightedLiveBytesFormula(t *testing.T) {
	// Paper §3.1.3. Page with hot=100, cold=300:
	//   conf 0.0 -> 100+300 = 400 (plain live bytes, ZGC behaviour)
	//   conf 0.5 -> 100+150 = 250
	//   conf 1.0 -> 100     (cold treated as garbage)
	// Page with hot=0, cold=400 -> always 400.
	p := testPage(ClassSmall)
	hot := p.AllocRaw(100)
	cold := p.AllocRaw(300)
	p.MarkLive(hot, 100)
	p.MarkLive(cold, 300)
	p.MarkHot(hot, 100)
	cases := []struct {
		conf float64
		want uint64
	}{{0, 400}, {0.5, 250}, {1.0, 100}}
	for _, tc := range cases {
		if got := p.WeightedLiveBytes(tc.conf); got != tc.want {
			t.Errorf("WLB(conf=%v) = %d, want %d", tc.conf, got, tc.want)
		}
	}

	allCold := testPage(ClassSmall)
	c1 := allCold.AllocRaw(400)
	allCold.MarkLive(c1, 400)
	for _, conf := range []float64{0, 0.5, 1.0} {
		if got := allCold.WeightedLiveBytes(conf); got != 400 {
			t.Errorf("all-cold WLB(conf=%v) = %d, want 400 (degrades to live bytes)", conf, got)
		}
	}
}

func TestResetMarksRendersAllCold(t *testing.T) {
	p := testPage(ClassSmall)
	a := p.AllocRaw(32)
	p.MarkLive(a, 32)
	p.MarkHot(a, 32)
	p.ResetMarks()
	if p.LiveBytes() != 0 || p.HotBytes() != 0 || p.LiveObjects() != 0 {
		t.Fatal("ResetMarks must clear accumulators")
	}
	if p.IsLive(a) || p.IsHot(a) {
		t.Fatal("ResetMarks must clear bitmaps")
	}
}

func TestSelectForEvacuationLifecycle(t *testing.T) {
	p := testPage(ClassSmall)
	a := p.AllocRaw(32)
	b := p.AllocRaw(32)
	p.MarkLive(a, 32)
	p.MarkLive(b, 32)
	if p.InEC() {
		t.Fatal("page must not start in EC")
	}
	p.SelectForEvacuation()
	if !p.InEC() || p.Forwarding() == nil {
		t.Fatal("SelectForEvacuation must install forwarding and flag EC")
	}
	if p.Remaining() != 2 {
		t.Fatalf("Remaining = %d, want 2", p.Remaining())
	}
	if p.ObjectRelocated() {
		t.Fatal("first relocation is not the last")
	}
	if !p.ObjectRelocated() {
		t.Fatal("second relocation should complete the page")
	}
}

func TestDropForwarding(t *testing.T) {
	p := testPage(ClassSmall)
	a := p.AllocRaw(32)
	p.MarkLive(a, 32)
	p.SelectForEvacuation()
	p.drop()
	if p.Forwarding() != nil || p.InEC() {
		t.Fatal("dropping a page must clear table and EC flag")
	}
}

func TestPageContainsAndWordIndex(t *testing.T) {
	p := testPage(ClassSmall)
	if !p.Contains(p.Start()) || !p.Contains(p.End()-1) || p.Contains(p.End()) || p.Contains(p.Start()-1) {
		t.Fatal("Contains boundary behaviour wrong")
	}
	if p.WordIndex(p.Start()) != 0 || p.WordIndex(p.Start()+24) != 3 {
		t.Fatal("WordIndex wrong")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassSmall: "small", ClassMedium: "medium", ClassLarge: "large",
	} {
		if c.String() != want {
			t.Errorf("Class %d String = %q, want %q", c, c.String(), want)
		}
	}
}
