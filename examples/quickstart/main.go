// Quickstart: create a runtime, define a type, allocate a linked list,
// survive a GC cycle, and read the collector/cache statistics.
package main

import (
	"fmt"

	"hcsgc"
)

func main() {
	// A 64MB heap with hotness tracking and lazy relocation enabled.
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes: 64 << 20,
		Knobs:        hcsgc.Knobs{Hotness: true, LazyRelocate: true},
	})
	defer rt.Close()

	// A list node: field 0 is a reference (next), field 1 a data word.
	node := rt.Types.Register("node", 2, []int{0})

	// Attach a mutator with 4 root slots. All heap access flows through
	// it: loads apply the ZGC load barrier, and every access feeds the
	// simulated cache hierarchy.
	m := rt.NewMutator(4)
	defer m.Close()

	// Build a 100k-node list, head in root slot 0. References must not be
	// held across safepoints (allocation polls), so the head lives in a
	// root slot and locals are re-derived from it.
	const n = 100_000
	m.SetRoot(0, hcsgc.NullRef)
	for i := n - 1; i >= 0; i-- {
		obj := m.Alloc(node)
		m.StoreField(obj, 1, uint64(i))
		m.StoreRef(obj, 0, m.LoadRoot(0))
		m.SetRoot(0, obj)
	}

	// Run a GC cycle and walk the list: relocation is transparent.
	m.RequestGC()
	sum := uint64(0)
	cur := m.LoadRoot(0)
	for !cur.IsNull() {
		sum += m.LoadField(cur, 1)
		cur = m.LoadRef(cur, 0)
	}
	fmt.Printf("sum over %d nodes: %d (want %d)\n", n, sum, uint64(n)*(n-1)/2)

	// Runtime-wide numbers come from what mutators have published; this
	// goroutine owns m and is still attached, so it publishes first.
	m.Publish()
	st := rt.Collector.Stats()
	ms := rt.MemStats()
	fmt.Printf("GC cycles: %d, pages relocated by mutator/GC: %d/%d objects\n",
		rt.Collector.Cycles(), st.MutatorRelocObjects, st.GCRelocObjects)
	fmt.Printf("cache model: %d loads, %d L1 misses, %d LLC misses\n",
		ms.Loads, ms.L1Misses, ms.LLCMisses)
	fmt.Printf("simulated execution time: %.3f ms\n", rt.ExecSeconds()*1000)
}
