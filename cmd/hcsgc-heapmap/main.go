// Command hcsgc-heapmap visualises hot/cold segregation: it builds a
// population with a hot subset, runs GC cycles under a chosen
// configuration, and prints the GC log plus an ASCII heap map. Under
// COLDPAGE + COLDCONFIDENCE the map shows hot-dense ('+') and cold-dense
// ('#') pages separating, and the segregation-purity metric printed with
// each map quantifies it (1.0 = every page all-hot or all-cold).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hcsgc"
)

func main() {
	var (
		n        = flag.Int("n", 200000, "objects")
		hotFrac  = flag.Int("hot", 5, "one object in N is hot")
		cycles   = flag.Int("cycles", 3, "GC cycles to run")
		coldpage = flag.Bool("coldpage", true, "enable COLDPAGE+HOTNESS+COLDCONFIDENCE=1")
		every    = flag.Bool("every", false, "print the heap map after every GC cycle, not just the last")
		verify   = flag.Bool("verify", false, "attach the STW heap verifier; maps flag pages with violations")
	)
	flag.Parse()
	heapmap(os.Stdout, *n, *hotFrac, *cycles, *coldpage, *every, *verify)
}

// heapmap runs the visualisation, writing the GC log and heap map(s) to w.
func heapmap(w io.Writer, n, hotFrac, cycles int, coldpage, every, verify bool) {
	knobs := hcsgc.Knobs{}
	if coldpage {
		knobs = hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0}
	}
	var v *hcsgc.HeapVerifier
	if verify {
		v = hcsgc.NewHeapVerifier()
	}
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes: 256 << 20,
		Knobs:        knobs,
		Verifier:     v,
	})
	defer rt.Close()
	obj := rt.Types.Register("obj", 3, nil)
	m := rt.NewMutator(2)
	defer m.Close()

	arr := m.AllocRefArray(n)
	m.SetRoot(0, arr)
	for i := 0; i < n; i++ {
		o := m.Alloc(obj)
		m.StoreField(o, 0, uint64(i))
		m.StoreRef(m.LoadRoot(0), i, o)
	}

	for cyc := 0; cyc < cycles; cyc++ {
		// Touch the hot subset, then collect: the next mark flags them hot
		// and relocation segregates.
		for i := 0; i < n; i += hotFrac {
			m.LoadRef(m.LoadRoot(0), i)
		}
		m.RequestGC()
		if every {
			fmt.Fprintf(w, "=== heap map after GC(%d) ===\n", cyc+1)
			writeMap(w, rt)
			fmt.Fprintln(w)
		}
	}

	fmt.Fprintf(w, "=== GC log (%v) ===\n", knobs)
	rt.Collector.WriteGCLog(w)
	if !every {
		fmt.Fprintf(w, "\n=== heap map ===\n")
		writeMap(w, rt)
	}
}

// writeMap prints the ASCII map plus the segregation-purity metric over
// the hot-trackable (small) live pages.
func writeMap(w io.Writer, rt *hcsgc.Runtime) {
	rt.Heap.WriteHeapMap(w)
	seg := rt.Heap.SegregationStats(^uint64(0))
	fmt.Fprintf(w, "segregation purity: %.4f (%d pages, %d live bytes)\n",
		seg.Purity(), seg.Pages, seg.LiveBytes)
}
