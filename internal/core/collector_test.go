package core

import (
	"testing"

	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry/latency"
)

// testEnv builds a collector over a small heap with a cache model.
func testEnv(t *testing.T, knobs Knobs) (*Collector, *objmodel.Registry) {
	t.Helper()
	mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
	h := heap.New(heap.Config{MaxBytes: 128 << 20}, mem)
	types := objmodel.NewRegistry()
	c, err := New(h, types, Config{Knobs: knobs})
	if err != nil {
		t.Fatal(err)
	}
	return c, types
}

func TestNewValidatesKnobs(t *testing.T) {
	h := heap.New(heap.Config{}, nil)
	types := objmodel.NewRegistry()
	bad := []Knobs{
		{ColdPage: true},
		{ColdConfidence: 0.5},
		{Hotness: true, ColdConfidence: 1.5},
		{Hotness: true, ColdConfidence: -0.1},
	}
	for _, k := range bad {
		if _, err := New(h, types, Config{Knobs: k}); err == nil {
			t.Errorf("knobs %+v should be rejected", k)
		}
	}
	if _, err := New(h, types, Config{Knobs: Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1}}); err != nil {
		t.Errorf("valid knobs rejected: %v", err)
	}
}

// TestKnobsString: the 18 distinct knob sets of Table 2 (configs 0 and 1
// are both the zero value), in config order, render as 18 distinct strings
// with no space at either end — reports print them in parentheses and
// carry them in JSON.
func TestKnobsString(t *testing.T) {
	for _, tc := range []struct {
		knobs Knobs
		want  string
	}{
		{Knobs{}, "zgc"},
		{Knobs{LazyRelocate: true}, "lazy"},
		{Knobs{RelocateAllSmallPages: true}, "all"},
		{Knobs{RelocateAllSmallPages: true, LazyRelocate: true}, "all lazy"},
		{Knobs{Hotness: true}, "H"},
		{Knobs{Hotness: true, ColdConfidence: 0.5}, "H cc=0.5"},
		{Knobs{Hotness: true, ColdConfidence: 1}, "H cc=1"},
		{Knobs{Hotness: true, LazyRelocate: true}, "H lazy"},
		{Knobs{Hotness: true, ColdConfidence: 0.5, LazyRelocate: true}, "H cc=0.5 lazy"},
		{Knobs{Hotness: true, ColdConfidence: 1, LazyRelocate: true}, "H cc=1 lazy"},
		{Knobs{Hotness: true, ColdPage: true}, "H+CP"},
		{Knobs{Hotness: true, ColdPage: true, ColdConfidence: 0.5}, "H+CP cc=0.5"},
		{Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1}, "H+CP cc=1"},
		{Knobs{Hotness: true, ColdPage: true, LazyRelocate: true}, "H+CP lazy"},
		{Knobs{Hotness: true, ColdPage: true, ColdConfidence: 0.5, LazyRelocate: true}, "H+CP cc=0.5 lazy"},
		{Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1, LazyRelocate: true}, "H+CP cc=1 lazy"},
		{Knobs{Hotness: true, RelocateAllSmallPages: true}, "H all"},
		{Knobs{Hotness: true, RelocateAllSmallPages: true, LazyRelocate: true}, "H all lazy"},
	} {
		if got := tc.knobs.String(); got != tc.want {
			t.Errorf("%+v renders as %q, want %q", tc.knobs, got, tc.want)
		}
	}
}

func TestInitialState(t *testing.T) {
	c, _ := testEnv(t, Knobs{})
	if c.Good() != heap.ColorRemapped {
		t.Errorf("initial good color = %v, want R", c.Good())
	}
	if c.CurrentPhase() != PhaseRelocate {
		t.Errorf("initial phase = %v, want relocate", c.CurrentPhase())
	}
	if c.Cycles() != 0 {
		t.Error("no cycles should have run")
	}
}

func TestAllocReturnsGoodColor(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	ref := m.Alloc(node)
	if ref.IsNull() {
		t.Fatal("allocation returned null")
	}
	if ref.Color() != c.Good() {
		t.Fatalf("allocated color %v != good %v", ref.Color(), c.Good())
	}
	// Fields start as null refs / zero words.
	if !m.LoadRef(ref, 0).IsNull() {
		t.Fatal("fresh ref field must be null")
	}
	if m.LoadField(ref, 1) != 0 {
		t.Fatal("fresh data field must be zero")
	}
}

func TestFieldRoundTrip(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 3, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	a := m.Alloc(node)
	b := m.Alloc(node)
	m.StoreRef(a, 0, b)
	m.StoreField(a, 1, 42)
	if got := m.LoadRef(a, 0); got != b {
		t.Fatalf("LoadRef = %v, want %v", got, b)
	}
	if got := m.LoadField(a, 1); got != 42 {
		t.Fatalf("LoadField = %d, want 42", got)
	}
}

func TestArrayAllocAndAccess(t *testing.T) {
	c, _ := testEnv(t, Knobs{})
	m := c.NewMutator(4)
	defer m.Close()
	arr := m.AllocRefArray(100)
	if m.ArrayLen(arr) != 100 {
		t.Fatalf("ArrayLen = %d", m.ArrayLen(arr))
	}
	warr := m.AllocWordArray(50)
	if m.ArrayLen(warr) != 50 {
		t.Fatalf("word ArrayLen = %d", m.ArrayLen(warr))
	}
	m.StoreField(warr, 49, 7)
	if m.LoadField(warr, 49) != 7 {
		t.Fatal("word array roundtrip failed")
	}
}

func TestMediumAndLargeAllocation(t *testing.T) {
	c, _ := testEnv(t, Knobs{})
	m := c.NewMutator(4)
	defer m.Close()
	// Medium: > 256KB.
	med := m.AllocWordArray((300 << 10) / 8)
	if c.Heap().PageOf(med.Addr()).Class() != heap.ClassMedium {
		t.Fatal("300KB object should be on a medium page")
	}
	// Large: > 4MB.
	large := m.AllocWordArray((5 << 20) / 8)
	if c.Heap().PageOf(large.Addr()).Class() != heap.ClassLarge {
		t.Fatal("5MB object should be on a large page")
	}
	m.StoreField(large, 0, 9)
	if m.LoadField(large, 0) != 9 {
		t.Fatal("large object access failed")
	}
}

// buildList allocates a singly linked list of n nodes, storing the head in
// root slot 0, and tags each node's payload field with its index.
func buildList(m *Mutator, node *objmodel.Type, n int) {
	m.SetRoot(0, heap.NullRef)
	for i := n - 1; i >= 0; i-- {
		obj := m.Alloc(node)
		m.StoreField(obj, 1, uint64(i))
		m.StoreRef(obj, 0, m.LoadRoot(0))
		m.SetRoot(0, obj)
	}
}

// walkList traverses the list at root 0 verifying payloads 0..n-1.
func walkList(t *testing.T, m *Mutator, n int) {
	t.Helper()
	cur := m.LoadRoot(0)
	for i := 0; i < n; i++ {
		if cur.IsNull() {
			t.Fatalf("list truncated at %d of %d", i, n)
		}
		if got := m.LoadField(cur, 1); got != uint64(i) {
			t.Fatalf("node %d payload = %d", i, got)
		}
		cur = m.LoadRef(cur, 0)
	}
	if !cur.IsNull() {
		t.Fatal("list longer than expected")
	}
}

func TestCycleFlipsColorsAndPreservesData(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	buildList(m, node, 1000)
	m.RequestGC()
	if c.Cycles() != 1 {
		t.Fatalf("cycles = %d, want 1", c.Cycles())
	}
	if c.Good() != heap.ColorRemapped || c.CurrentPhase() != PhaseRelocate {
		t.Fatal("after a cycle the collector must be in the relocate era with good=R")
	}
	walkList(t, m, 1000)
	// Root must have been healed to the good color during the pauses.
	if got := m.LoadRoot(0); got.Color() != heap.ColorRemapped {
		t.Fatalf("root color = %v, want R", got.Color())
	}
}

func TestMarkColorAlternates(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	buildList(m, node, 10)
	// Observe the mark colors indirectly: two cycles must both succeed and
	// data must survive (a stuck color would break barrier fast paths).
	for i := 0; i < 4; i++ {
		m.RequestGC()
		walkList(t, m, 10)
	}
	if c.Cycles() != 4 {
		t.Fatalf("cycles = %d", c.Cycles())
	}
}

func TestGarbageReclaimed(t *testing.T) {
	c, _ := testEnv(t, Knobs{})
	m := c.NewMutator(4)
	defer m.Close()
	// Allocate ~16MB of garbage (unreachable after allocation).
	for i := 0; i < 4096; i++ {
		m.AllocWordArray(511) // 4KB each
	}
	used := c.Heap().UsedBytes()
	if used < 16<<20 {
		t.Fatalf("expected >=16MB allocated, got %d", used)
	}
	m.RequestGC() // mark finds nothing live; empty pages freed at EC
	after := c.Heap().UsedBytes()
	if after >= used/2 {
		t.Fatalf("garbage not reclaimed: before=%d after=%d", used, after)
	}
}

func TestDeadLargePageReclaimedImmediately(t *testing.T) {
	c, _ := testEnv(t, Knobs{})
	m := c.NewMutator(4)
	defer m.Close()
	ref := m.AllocWordArray((5 << 20) / 8)
	m.SetRoot(0, ref)
	used := c.Heap().UsedBytes()
	m.SetRoot(0, heap.NullRef) // drop the only reference
	m.RequestGC()
	if c.Heap().UsedBytes() >= used {
		t.Fatal("dead large page must be reclaimed during EC selection")
	}
}

func TestLiveLargePageSurvives(t *testing.T) {
	c, _ := testEnv(t, Knobs{})
	m := c.NewMutator(4)
	defer m.Close()
	ref := m.AllocWordArray((5 << 20) / 8)
	m.StoreField(ref, 12345, 77)
	m.SetRoot(0, ref)
	m.RequestGC()
	got := m.LoadRoot(0)
	if m.LoadField(got, 12345) != 77 {
		t.Fatal("live large object corrupted")
	}
	// Large objects are never relocated.
	if got.Addr() != ref.Addr() {
		t.Fatal("large object must not move")
	}
}

func TestSparsePageEvacuatedDataIntact(t *testing.T) {
	// Allocate many nodes, keep every 16th: pages become sparse, get
	// selected for evacuation, and survivors must remap correctly.
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	const keep = 4096
	arr := m.AllocRefArray(keep)
	m.SetRoot(0, arr)
	for i := 0; i < keep; i++ {
		for j := 0; j < 15; j++ {
			m.Alloc(node) // garbage filler
		}
		obj := m.Alloc(node)
		m.StoreField(obj, 1, uint64(i))
		m.StoreRef(m.LoadRoot(0), i, obj)
	}
	oldAddrs := make([]uint64, keep)
	a := m.LoadRoot(0)
	for i := 0; i < keep; i++ {
		oldAddrs[i] = m.LoadRef(a, i).Addr()
	}
	m.RequestGC()
	// Force the relocation era to finish: run a second cycle, whose start
	// waits for the drain.
	m.RequestGC()
	a = m.LoadRoot(0)
	moved := 0
	for i := 0; i < keep; i++ {
		obj := m.LoadRef(a, i)
		if got := m.LoadField(obj, 1); got != uint64(i) {
			t.Fatalf("survivor %d payload = %d", i, got)
		}
		if obj.Addr() != oldAddrs[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("sparse pages should have been evacuated (some survivors must move)")
	}
}

func TestStoreStaleRefPanics(t *testing.T) {
	// The store barrier guard catches refs whose color disagrees with the
	// good color (e.g. a mark-colored ref held across STW3). Same-color
	// staleness across a full cycle is excluded by the API contract, as in
	// real ZGC where stack scanning fixes such refs.
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	a := m.Alloc(node)
	stale := a.Recolor(heap.ColorMarked0) // good is R initially
	defer func() {
		if recover() == nil {
			t.Fatal("storing a wrong-colored reference must panic")
		}
	}()
	m.StoreRef(a, 0, stale)
}

func TestAllocationStallTriggersGC(t *testing.T) {
	mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
	h := heap.New(heap.Config{MaxBytes: 16 << 20}, mem)
	types := objmodel.NewRegistry()
	c := MustNew(h, types, Config{TriggerPercent: 101}) // no occupancy cycles
	m := c.NewMutator(4)
	defer m.Close()
	// Allocate 64MB of garbage through a 16MB heap: must stall and recover.
	for i := 0; i < 16384; i++ {
		m.AllocWordArray(511)
	}
	if m.Stalls == 0 {
		t.Fatal("expected allocation stalls")
	}
	if c.Cycles() == 0 {
		t.Fatal("stalls must trigger GC cycles")
	}
}

func TestHeapUsageTracked(t *testing.T) {
	c, _ := testEnv(t, Knobs{})
	m := c.NewMutator(4)
	defer m.Close()
	m.AllocWordArray(100)
	if c.Heap().UsedPercent() <= 0 {
		t.Fatal("heap usage should be positive after allocation")
	}
}

// TestCollectorBuildsItsPlanes: a collector handed no tracker and no signal
// plane builds both, so the clocks, counters and record fields they complete
// are maintained in every run — there is no configuration in which they read
// zero. (Utilization, MarkCycles and StallVirtualCycles are legitimately 0
// here: with one mutator the virtual clock moves only by pause cost while it
// is blocked in RequestGC; see latency.Tracker.RecordPhase.)
func TestCollectorBuildsItsPlanes(t *testing.T) {
	types := objmodel.NewRegistry()
	c, err := New(heap.New(heap.Config{MaxBytes: 16 << 20}, nil), types, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lat, sig := c.Config().Latency, c.Config().Signals
	if lat == nil || sig == nil {
		t.Fatalf("Config{} left the collector without a plane: Latency %v, Signals %v", lat, sig)
	}
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(1)
	defer m.Close()
	for i := 0; i < 2; i++ {
		buildList(m, node, 500)
		m.RequestGC()
	}
	if got := lat.Report().Cycles; got != 2 {
		t.Errorf("the tracker recorded %d cycles, want 2", got)
	}
	if got := sig.Snapshot().Cycles; got != 2 {
		t.Errorf("the signal plane recorded %d cycles, want 2", got)
	}
	if rec := c.Stats().Cycles[1]; rec.AllocBytes == 0 || len(rec.MMU) != len(latency.DefaultMMUWindows) {
		t.Errorf("cycle 2: AllocBytes %d, %d MMU windows, want > 0 and %d",
			rec.AllocBytes, len(rec.MMU), len(latency.DefaultMMUWindows))
	}
	if m.AllocatedBytes() == 0 {
		t.Error("AllocatedBytes() = 0 after allocating")
	}
}
