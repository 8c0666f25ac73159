package core

import (
	"math/rand"
	"sync"
	"testing"

	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// buildObjectArray allocates an array of n small objects (payload tagged
// with the index), stores it in root 0, and returns nothing. Objects are
// allocated in index order, so their initial layout is index order.
func buildObjectArray(m *Mutator, node *objmodel.Type, n int) {
	arr := m.AllocRefArray(n)
	m.SetRoot(0, arr)
	for i := 0; i < n; i++ {
		obj := m.Alloc(node)
		m.StoreField(obj, 1, uint64(i))
		m.StoreRef(m.LoadRoot(0), i, obj)
	}
}

// touch accesses element i through the barrier and returns the element.
func touch(m *Mutator, i int) heap.Ref {
	return m.LoadRef(m.LoadRoot(0), i)
}

func TestHotnessViaRColoredPointers(t *testing.T) {
	// Objects whose slots a mutator healed during the relocation era carry
	// R-colored pointers; the next mark must flag exactly those hot
	// (paper §3.1.2). LazyRelocate keeps cycle 2's drain from freeing the
	// pages whose hot accounting we inspect.
	c, types := testEnv(t, Knobs{Hotness: true, LazyRelocate: true})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	const n = 2000
	buildObjectArray(m, node, n)
	m.RequestGC() // cycle 1: end in relocation era

	// Touch the first half during the relocation era.
	for i := 0; i < n/2; i++ {
		touch(m, i)
	}
	m.RequestGC() // cycle 2: mark flags touched objects hot

	// Inspect the pages directly (touching objects again could relocate
	// them to fresh pages whose hotmaps are empty — hot bits do not travel
	// with relocation; they are re-derived each mark).
	var hotBytes, liveBytes uint64
	c.Heap().LivePages(func(p *heap.Page) {
		hotBytes += p.HotBytes()
		liveBytes += p.LiveBytes()
	})
	objBytes := uint64(n / 2 * 24) // node = header + 2 fields = 24 bytes
	if hotBytes < objBytes {
		t.Errorf("hot bytes = %d, want >= %d (the touched half)", hotBytes, objBytes)
	}
	if coldBytes := liveBytes - hotBytes; coldBytes < objBytes {
		t.Errorf("cold bytes = %d, want >= %d (the untouched half)", coldBytes, objBytes)
	}
}

func TestHotnessDisabledRecordsNothing(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	buildObjectArray(m, node, 500)
	m.RequestGC()
	for i := 0; i < 500; i++ {
		touch(m, i)
	}
	m.RequestGC()
	hot := 0
	c.Heap().LivePages(func(p *heap.Page) {
		hot += int(p.HotBytes())
	})
	if hot != 0 {
		t.Fatalf("hot bytes = %d with HOTNESS off, want 0", hot)
	}
}

// TestColdFracMeasuredOnlyWithHotness: cold_frac is one minus the hotmap
// density, so with hotness off there is nothing to measure. Such a cycle
// logs the -1 sentinel and publishes neither the cold_frac gauge nor a
// sample on its track; with hotness on both carry the logged value.
func TestColdFracMeasuredOnlyWithHotness(t *testing.T) {
	for _, knobs := range []Knobs{{}, {Hotness: true}} {
		t.Run(knobs.String(), func(t *testing.T) {
			sink := telemetry.NewSink()
			tr := latency.New(latency.Config{})
			tr.BindTelemetry(sink.Metrics(), sink.Recorder())
			h := heap.New(heap.Config{MaxBytes: 128 << 20}, simmem.MustNewHierarchy(simmem.DefaultConfig()))
			types := objmodel.NewRegistry()
			c := MustNew(h, types, Config{Knobs: knobs, Telemetry: sink, Latency: tr})
			node := types.Register("node", 2, []int{0})
			m := c.NewMutator(4)
			defer m.Close()
			buildObjectArray(m, node, 2000)
			m.RequestGC()
			for i := 0; i < 1000; i++ {
				touch(m, i)
			}
			m.RequestGC()

			var samples int
			for _, ev := range telemetry.BuildTrace(sink.Recorder().Snapshot()).TraceEvents {
				if ev.Ph == "C" && ev.Name == "signal_cold_frac" {
					samples++
				}
			}
			gauge := sink.Metrics().Gauge("hcsgc_signal_value", "", "signal", "cold_frac").Value()
			last := c.Stats().Cycles[1]
			if !knobs.Hotness {
				if last.ColdFrac != -1 || samples != 0 || gauge != 0 {
					t.Fatalf("hotness off: cold_frac logged %v, published %v with %d track samples; want -1, unpublished",
						last.ColdFrac, gauge, samples)
				}
				return
			}
			if last.ColdFrac <= 0 || last.ColdFrac >= 1 || samples != 2 || gauge != last.ColdFrac {
				t.Fatalf("hotness on: cold_frac logged %v, published %v with %d track samples; want a fraction in (0,1) on both cycles",
					last.ColdFrac, gauge, samples)
			}
		})
	}
}

func TestWLBSelectionExcavatesBuriedHotObjects(t *testing.T) {
	// A fully live page (no garbage) is never selected by baseline ZGC.
	// With COLDCONFIDENCE=1.0, pages whose hot bytes are small relative to
	// page size are selected, "excavating" hot objects buried among cold
	// ones (§3.1.3).
	run := func(knobs Knobs) (ecSmallTotal int) {
		c, types := testEnv(t, knobs)
		node := types.Register("node", 2, []int{0})
		m := c.NewMutator(4)
		defer m.Close()
		const n = 200000 // ~6.4MB of 32B objects: several fully live pages
		buildObjectArray(m, node, n)
		m.RequestGC()
		// Touch a sparse subset during the relocation era: these become
		// hot at the next mark.
		for i := 0; i < n; i += 97 {
			touch(m, i)
		}
		m.RequestGC() // hotness recorded; EC selection sees hot/cold split
		for _, cs := range c.Stats().Cycles {
			ecSmallTotal += cs.ECSmall
		}
		return ecSmallTotal
	}
	baseline := run(Knobs{})
	aggressive := run(Knobs{Hotness: true, ColdConfidence: 1.0})
	if aggressive <= baseline {
		t.Fatalf("ColdConfidence=1.0 EC pages (%d) must exceed baseline (%d)", aggressive, baseline)
	}
}

func TestRelocateAllSmallPagesSelectsEverything(t *testing.T) {
	c, types := testEnv(t, Knobs{RelocateAllSmallPages: true})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	buildObjectArray(m, node, 60000)
	m.RequestGC()
	st := c.Stats()
	if len(st.Cycles) != 1 {
		t.Fatalf("cycles = %d", len(st.Cycles))
	}
	if st.Cycles[0].ECSmall == 0 {
		t.Fatal("RelocateAllSmallPages must select fully live small pages")
	}
}

func TestBaselineSkipsDensePages(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	buildObjectArray(m, node, 200000) // several fully live pages
	m.RequestGC()
	st := c.Stats()
	// Only the partially filled tail TLAB page may qualify; the dense,
	// fully live pages must not.
	if got := st.Cycles[0].ECSmall; got > 1 {
		t.Fatalf("baseline selected %d small pages, want at most the sparse tail page", got)
	}
}

func TestLazyRelocateMutatorLaysOutInAccessOrder(t *testing.T) {
	// The core mechanism of the paper (§3.2): with LAZYRELOCATE and a
	// large EC, the mutator relocates objects as it accesses them, so the
	// new layout follows the access order.
	c, types := testEnv(t, Knobs{RelocateAllSmallPages: true, LazyRelocate: true})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	const n = 20000
	buildObjectArray(m, node, n)
	m.RequestGC() // EC = all small pages; GC threads stand down (lazy)

	order := rand.New(rand.NewSource(7)).Perm(n)
	addrs := make([]uint64, 0, n)
	for _, i := range order {
		obj := touch(m, i) // slow path: mutator relocates into its TLAB
		addrs = append(addrs, obj.Addr())
	}
	// Count ascending adjacent pairs: relocation in access order means the
	// addresses the mutator produced are (almost) monotonically increasing.
	ascending := 0
	for i := 1; i < len(addrs); i++ {
		if addrs[i] > addrs[i-1] {
			ascending++
		}
	}
	frac := float64(ascending) / float64(len(addrs)-1)
	if frac < 0.95 {
		t.Fatalf("only %.1f%% of accesses landed in ascending address order; mutator-order relocation broken", 100*frac)
	}
	m.Publish() // relocation wins are tallied privately until published
	st := c.Stats()
	if st.MutatorRelocObjects < n {
		t.Fatalf("mutator relocated %d objects, want >= %d", st.MutatorRelocObjects, n)
	}
	// Verify integrity after relocation.
	for i := 0; i < n; i += 111 {
		if got := m.LoadField(touch(m, i), 1); got != uint64(i) {
			t.Fatalf("object %d payload = %d after relocation", i, got)
		}
	}
}

func TestNonLazyGCThreadsRelocate(t *testing.T) {
	// Without LAZYRELOCATE the GC workers drain EC pages themselves; an
	// idle mutator should find everything already relocated.
	c, types := testEnv(t, Knobs{RelocateAllSmallPages: true})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	const n = 20000
	buildObjectArray(m, node, n)
	m.RequestGC()
	c.relocWG.Wait() // let the concurrent drain finish
	st := c.Stats()
	if st.GCRelocObjects < n {
		t.Fatalf("GC relocated %d objects, want >= %d", st.GCRelocObjects, n)
	}
	for i := 0; i < n; i += 97 {
		if got := m.LoadField(touch(m, i), 1); got != uint64(i) {
			t.Fatalf("object %d payload = %d", i, got)
		}
	}
}

func TestLazyRelocateDrainsAtNextCycleStart(t *testing.T) {
	// Leftover EC objects the mutator never touched must be relocated by
	// GC threads at the start of the next cycle (Fig. 3), and the pages
	// freed.
	c, types := testEnv(t, Knobs{RelocateAllSmallPages: true, LazyRelocate: true})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	buildObjectArray(m, node, 20000)
	m.RequestGC()
	// Touch nothing. Next cycle must start with the RE drain.
	m.RequestGC()
	st := c.Stats()
	if st.GCRelocObjects == 0 {
		t.Fatal("lazy leftover drain did not run")
	}
	for i := 0; i < 20000; i += 199 {
		if got := m.LoadField(touch(m, i), 1); got != uint64(i) {
			t.Fatalf("object %d payload = %d", i, got)
		}
	}
}

func TestColdPageSegregation(t *testing.T) {
	// With COLDPAGE, the GC drain sends hot and cold objects to different
	// destination pages (§3.3).
	c, types := testEnv(t, Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	const n = 30000
	buildObjectArray(m, node, n)
	m.RequestGC()
	// Make every 3rd object hot during the relocation era.
	for i := 0; i < n; i += 3 {
		touch(m, i)
	}
	m.RequestGC() // mark records hotness; EC selects pages (conf=1.0)
	c.relocWG.Wait()

	hotPages := map[*heap.Page]bool{}
	coldPages := map[*heap.Page]bool{}
	relocated := 0
	for i := 0; i < n; i++ {
		obj := touch(m, i)
		p := c.Heap().PageOf(obj.Addr())
		if i%3 == 0 {
			hotPages[p] = true
		} else {
			coldPages[p] = true
		}
		relocated++
		if i%64 == 0 {
			m.Safepoint()
		}
	}
	if len(hotPages) == 0 || len(coldPages) == 0 {
		t.Fatal("expected both hot and cold destination pages")
	}
	overlap := 0
	for p := range hotPages {
		if coldPages[p] {
			overlap++
		}
	}
	// Mutator-relocated stragglers can blur the split slightly; require
	// strong segregation, not perfection.
	if overlap > (len(hotPages)+len(coldPages))/4 {
		t.Fatalf("hot/cold pages overlap too much: %d of %d+%d", overlap, len(hotPages), len(coldPages))
	}
}

func TestColdPageNeverIncreasesMixing(t *testing.T) {
	// Comparative check for §3.3: COLDPAGE can only reduce (never
	// increase) hot/cold page sharing relative to the same configuration
	// without it. (A strict "mixing without COLDPAGE" assertion would be
	// wrong: the mutator-vs-GC relocation split already segregates — the
	// mutator only ever touches hot objects, so its TLAB pages are
	// all-hot even without the knob.)
	overlapFor := func(knobs Knobs) int {
		c, types := testEnv(t, knobs)
		node := types.Register("node", 2, []int{0})
		m := c.NewMutator(4)
		defer m.Close()
		const n = 30000
		buildObjectArray(m, node, n)
		m.RequestGC()
		for i := 0; i < n; i += 3 {
			touch(m, i)
		}
		m.RequestGC()
		c.relocWG.Wait()
		hotPages := map[*heap.Page]bool{}
		coldPages := map[*heap.Page]bool{}
		for i := 0; i < n; i++ {
			obj := touch(m, i)
			p := c.Heap().PageOf(obj.Addr())
			if i%3 == 0 {
				hotPages[p] = true
			} else {
				coldPages[p] = true
			}
			if i%64 == 0 {
				m.Safepoint()
			}
		}
		overlap := 0
		for p := range hotPages {
			if coldPages[p] {
				overlap++
			}
		}
		return overlap
	}
	with := overlapFor(Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0})
	without := overlapFor(Knobs{Hotness: true, ColdConfidence: 1.0})
	if with > without {
		t.Fatalf("COLDPAGE increased hot/cold page sharing: %d vs %d", with, without)
	}
}

func TestEvacuatedPagesFreedAndDropped(t *testing.T) {
	c, types := testEnv(t, Knobs{RelocateAllSmallPages: true})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	buildObjectArray(m, node, 60000)
	m.RequestGC()
	c.relocWG.Wait()
	freedBefore := c.Heap().PagesFreed.Load()
	if freedBefore == 0 {
		t.Fatal("evacuated pages must be freed once fully relocated")
	}
	// The next cycle's mark end must drop forwarding tables.
	m.RequestGC()
	if len(c.pendingDrop) != 0 {
		t.Fatalf("pendingDrop = %d pages after mark end, want 0", len(c.pendingDrop))
	}
}

func TestConcurrentMutatorsWithOccupancyTrigger(t *testing.T) {
	// End-to-end stress: several mutators churn linked lists while their
	// page takes trigger cycles. Data integrity must hold. A small heap
	// guarantees the occupancy trigger fires.
	mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
	h := heap.New(heap.Config{MaxBytes: 16 << 20}, mem)
	types := objmodel.NewRegistry()
	c := MustNew(h, types, Config{Knobs: Knobs{Hotness: true, ColdPage: true, ColdConfidence: 0.5, LazyRelocate: true}})
	node := types.Register("node", 2, []int{0})
	defer c.Stop()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := c.NewMutator(4)
			defer m.Close()
			const n = 300
			for round := 0; round < 30; round++ {
				buildList(m, node, n)
				// Garbage to create pressure.
				for i := 0; i < 200; i++ {
					m.AllocWordArray(255) // 2KB each
				}
				cur := m.LoadRoot(0)
				for i := 0; i < n; i++ {
					if got := m.LoadField(cur, 1); got != uint64(i) {
						errs <- "corrupted list"
						return
					}
					cur = m.LoadRef(cur, 0)
				}
				m.Safepoint()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if c.Cycles() == 0 {
		t.Fatal("no cycle triggered under pressure")
	}
}

func TestMutatorRequestGCConcurrentWithTrigger(t *testing.T) {
	// Requested cycles interleave with triggered ones: past 5 % occupancy
	// every page take starts a cycle of its own.
	h := heap.New(heap.Config{MaxBytes: 32 << 20}, nil)
	types := objmodel.NewRegistry()
	c := MustNew(h, types, Config{Knobs: Knobs{LazyRelocate: true}, TriggerPercent: 5})
	node := types.Register("node", 2, []int{0})
	defer c.Stop()
	m := c.NewMutator(4)
	defer m.Close()
	buildList(m, node, 100)
	for i := 0; i < 5; i++ {
		for j := 0; j < 64; j++ {
			m.AllocWordArray(4 << 10) // 32 KB of garbage: a page take every ~60
		}
		m.RequestGC()
		walkList(t, m, 100)
	}
}

func TestStatsMedianECSmall(t *testing.T) {
	s := Stats{Cycles: []CycleStats{{ECSmall: 5}, {ECSmall: 1}, {ECSmall: 3}}}
	if got := s.MedianECSmall(); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	s = Stats{Cycles: []CycleStats{{ECSmall: 4}, {ECSmall: 2}}}
	if got := s.MedianECSmall(); got != 3 {
		t.Fatalf("even median = %v, want 3", got)
	}
	if (Stats{}).MedianECSmall() != 0 {
		t.Fatal("empty median must be 0")
	}
}
