package core

import (
	"testing"

	"hcsgc/internal/heap"
)

// TestSelfHealingSlot: after one barrier slow path on a slot, subsequent
// loads of the same slot take the fast path (the slot was healed with a
// good-colored alias).
func TestSelfHealingSlot(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	parent := m.Alloc(node)
	child := m.Alloc(node)
	m.StoreRef(parent, 0, child)
	m.SetRoot(0, parent)
	m.RequestGC() // slot now holds a stale-colored ref (good changed M->R->...)

	// First load heals; it must pay the slow-path cost once.
	slowCost := uint64(costBarrierSlow)
	before := m.extra
	p := m.LoadRoot(0)
	m.LoadRef(p, 0)
	afterFirst := m.extra
	m.LoadRef(p, 0)
	afterSecond := m.extra

	paidFirst := afterFirst - before
	paidSecond := afterSecond - afterFirst
	if paidFirst < slowCost {
		t.Fatalf("first load paid %d, want >= slow path %d", paidFirst, slowCost)
	}
	if paidSecond >= slowCost {
		t.Fatalf("second load paid %d; slot was not healed", paidSecond)
	}
}

// TestBarrierFastPathCost: loads of good-colored refs pay exactly the
// fast-path constant.
func TestBarrierFastPathCost(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	a := m.Alloc(node)
	b := m.Alloc(node)
	m.StoreRef(a, 0, b)
	before := m.extra
	m.LoadRef(a, 0) // freshly stored good ref: fast path
	paid := m.extra - before
	if paid != costBarrierFast {
		t.Fatalf("fast path paid %d, want %d", paid, costBarrierFast)
	}
}

// TestHotnessOverheadOnlyWhenEnabled: the hotmap CAS cost appears in the
// GC workers' ledgers exactly when HOTNESS is on (in this synchronous
// test the mutator is parked during marking, so the R-colored-pointer
// path — GC-side flagging — records all the hotness). Config 5's <2%
// overhead in the paper is this cost.
func TestHotnessOverheadOnlyWhenEnabled(t *testing.T) {
	run := func(knobs Knobs) (gcCycles uint64, hotBytes uint64) {
		c, types := testEnv(t, knobs)
		node := types.Register("node", 2, []int{0})
		m := c.NewMutator(4)
		defer m.Close()
		buildObjectArray(m, node, 2000)
		m.RequestGC()
		for i := 0; i < 2000; i++ {
			touch(m, i)
		}
		m.RequestGC()
		c.Heap().LivePages(func(p *heap.Page) { hotBytes += p.HotBytes() })
		return c.GCWorkerCycles(), hotBytes
	}
	offCycles, offHot := run(Knobs{LazyRelocate: true})
	onCycles, onHot := run(Knobs{Hotness: true, LazyRelocate: true})
	if offHot != 0 {
		t.Fatalf("hot bytes recorded with HOTNESS off: %d", offHot)
	}
	if onHot == 0 {
		t.Fatal("no hot bytes recorded with HOTNESS on")
	}
	if onCycles <= offCycles {
		t.Fatalf("hotness tracking must cost GC cycles: on=%d off=%d", onCycles, offCycles)
	}
}

// TestRootHealingAtPauses: root slots are healed during pauses, so a
// LoadRoot right after a cycle is already good-colored (fast path).
func TestRootHealingAtPauses(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	obj := m.Alloc(node)
	m.SetRoot(0, obj)
	m.RequestGC()
	if got := m.roots[0]; got.Color() != heap.ColorRemapped {
		t.Fatalf("root color after cycle = %v, want R (healed at STW3)", got.Color())
	}
	before := m.extra
	m.LoadRoot(0)
	if paid := m.extra - before; paid != costBarrierFast {
		t.Fatalf("healed root load paid %d, want fast path %d", paid, costBarrierFast)
	}
}

// TestAllocationsAreGoodColored: in both eras, fresh allocations carry the
// current good color, so their first load is a fast path.
func TestAllocationsAreGoodColored(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	// Relocation era (initial).
	a := m.Alloc(node)
	if a.Color() != c.Good() {
		t.Fatalf("alloc color %v != good %v", a.Color(), c.Good())
	}
	m.RequestGC()
	b := m.Alloc(node)
	if b.Color() != c.Good() {
		t.Fatalf("post-cycle alloc color %v != good %v", b.Color(), c.Good())
	}
}
