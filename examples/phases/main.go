// Phases: demonstrates that HCSGC adapts to phase changes (§4.4, Fig. 5).
// The program accesses the same objects in three different stable orders;
// after each phase change, a GC cycle lets the mutator re-lay the objects
// out in the new order, and LLC misses drop again.
package main

import (
	"fmt"
	"math/rand"

	"hcsgc"
)

const (
	numObjects = 250_000 // ~8MB of objects: well past the 4MB LLC
	passes     = 3       // traversals per phase
)

func main() {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes: 128 << 20,
		Knobs: hcsgc.Knobs{
			Hotness:               true,
			RelocateAllSmallPages: true,
			LazyRelocate:          true,
		},
	})
	defer rt.Close()
	obj := rt.Types.Register("obj", 3, nil)
	m := rt.NewMutator(2)
	defer m.Close()

	arr := m.AllocRefArray(numObjects)
	m.SetRoot(0, arr)
	for i := 0; i < numObjects; i++ {
		o := m.Alloc(obj)
		m.StoreField(o, 0, uint64(i))
		m.StoreRef(m.LoadRoot(0), i, o)
	}

	// Runtime-wide counters come from what mutators have published; this
	// goroutine owns m, so it publishes before each reading.
	memStats := func() hcsgc.MemStats {
		m.Publish()
		return rt.MemStats()
	}
	for phase := 0; phase < 3; phase++ {
		// Each phase has its own stable access order.
		order := rand.New(rand.NewSource(int64(phase))).Perm(numObjects)
		// A GC cycle at the phase boundary puts pages into EC; with lazy
		// relocation, the first traversal of the new phase lays objects
		// out in the new order.
		m.RequestGC()
		for pass := 0; pass < passes; pass++ {
			before := memStats()
			for k, idx := range order {
				o := m.LoadRef(m.LoadRoot(0), idx)
				_ = m.LoadField(o, 0)
				if k%8192 == 0 {
					m.Safepoint()
				}
			}
			after := memStats()
			fmt.Printf("phase %d pass %d: %8d LLC misses\n",
				phase, pass, after.LLCMisses-before.LLCMisses)
		}
	}
	fmt.Printf("\nGC cycles: %d, mutator-relocated objects: %d\n",
		rt.Collector.Cycles(), rt.Collector.Stats().MutatorRelocObjects)
	fmt.Println("expect: within each phase, the first pass (reorganising) costs more,")
	fmt.Println("then misses drop — the layout now matches the phase's access order.")
}
