// Command hcsgc-demo shows the core HCSGC mechanism on a tiny example: it
// allocates objects in index order, accesses them in a shuffled order
// through GC cycles, and prints the object layout before and after — under
// baseline ZGC behaviour and under HCSGC with lazy relocation — together
// with the cache statistics for a post-reorganisation traversal.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"hcsgc"
)

func main() {
	// The default population fills several 2MB pages completely and
	// exceeds the 4MB simulated LLC: fully live pages are exactly the ones
	// baseline ZGC never evacuates but HCSGC does.
	n := flag.Int("n", 300000, "number of objects")
	show := flag.Int("show", 12, "objects to print per layout dump")
	flag.Parse()
	demo(os.Stdout, *n, *show)
}

// demo runs the full comparison, writing the report to w.
func demo(w io.Writer, n, show int) {
	order := rand.New(rand.NewSource(42)).Perm(n)

	fmt.Fprintln(w, "=== baseline (original ZGC behaviour) ===")
	run(w, hcsgc.Knobs{}, n, order, show)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "=== HCSGC: RelocateAllSmallPages + LazyRelocate ===")
	run(w, hcsgc.Knobs{RelocateAllSmallPages: true, LazyRelocate: true}, n, order, show)
}

func run(w io.Writer, knobs hcsgc.Knobs, n int, order []int, show int) {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes: 256 << 20,
		Knobs:        knobs,
	})
	defer rt.Close()
	obj := rt.Types.Register("demo.obj", 3, nil)
	m := rt.NewMutator(2)
	defer m.Close()

	arr := m.AllocRefArray(n)
	m.SetRoot(0, arr)
	for i := 0; i < n; i++ {
		o := m.Alloc(obj)
		m.StoreField(o, 0, uint64(i))
		m.StoreRef(m.LoadRoot(0), i, o)
	}

	dump := func(when string) {
		fmt.Fprintf(w, "%-28s", when+":")
		for k := 0; k < show && k < len(order); k++ {
			ref := m.LoadRef(m.LoadRoot(0), order[k])
			fmt.Fprintf(w, " %#x", ref.Addr())
		}
		fmt.Fprintln(w)
	}

	// Runtime-wide counters come from what mutators have published; this
	// goroutine owns m, so it publishes before each reading.
	memStats := func() hcsgc.MemStats {
		m.Publish()
		return rt.MemStats()
	}
	dump("layout before GC")
	m.RequestGC() // select EC; in lazy mode GC threads stand down

	// Traverse in the shuffled access order: under HCSGC the mutator
	// relocates each object as it touches it, into its TLAB, in exactly
	// this order.
	before := memStats()
	for _, idx := range order {
		o := m.LoadRef(m.LoadRoot(0), idx)
		_ = m.LoadField(o, 0)
	}
	dump("layout after 1st traversal")

	// Second traversal: measure locality of the (possibly) new layout.
	mid := memStats()
	for _, idx := range order {
		o := m.LoadRef(m.LoadRoot(0), idx)
		_ = m.LoadField(o, 0)
	}
	after := memStats()

	fmt.Fprintf(w, "1st traversal: %d loads, %d LLC misses (includes relocation)\n",
		mid.Loads-before.Loads, mid.LLCMisses-before.LLCMisses)
	fmt.Fprintf(w, "2nd traversal: %d loads, %d LLC misses\n",
		after.Loads-mid.Loads, after.LLCMisses-mid.LLCMisses)
	st := rt.Collector.Stats()
	fmt.Fprintf(w, "GC cycles: %d | mutator-relocated objects: %d | GC-relocated: %d\n",
		rt.Collector.Cycles(), st.MutatorRelocObjects, st.GCRelocObjects)
}
