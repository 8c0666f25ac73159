// Tuning: sweeps representative HCSGC knob combinations (a slice of the
// paper's Table 2) over a small pointer-chasing workload and prints the
// execution-time and LLC-miss deltas against the ZGC baseline — a
// miniature of the paper's evaluation figures.
package main

import (
	"fmt"
	"math/rand"

	"hcsgc"
)

type config struct {
	name  string
	knobs hcsgc.Knobs
}

func main() {
	configs := []config{
		{"0 ZGC baseline", hcsgc.Knobs{}},
		{"2 lazy", hcsgc.Knobs{LazyRelocate: true}},
		{"3 all-pages", hcsgc.Knobs{RelocateAllSmallPages: true}},
		{"4 all+lazy", hcsgc.Knobs{RelocateAllSmallPages: true, LazyRelocate: true}},
		{"7 hot cc=1.0", hcsgc.Knobs{Hotness: true, ColdConfidence: 1.0}},
		{"10 hot cc=1.0 lazy", hcsgc.Knobs{Hotness: true, ColdConfidence: 1.0, LazyRelocate: true}},
		{"16 +coldpage", hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true}},
	}

	var baseline float64
	fmt.Printf("%-22s %12s %10s %14s\n", "config", "exec (ms)", "vs ZGC", "LLC misses")
	for i, c := range configs {
		secs, misses := run(c.knobs)
		if i == 0 {
			baseline = secs
		}
		fmt.Printf("%-22s %12.2f %+9.1f%% %14d\n",
			c.name, secs*1000, 100*(secs-baseline)/baseline, misses)
	}
	fmt.Println(`
In this workload every object is accessed every round, so all pages are
dense with HOT objects: ColdConfidence cannot select them (the paper's
section 3.1.3 caveat) and only RelocateAllSmallPages configs win. Compare
examples/phases, where the knob families behave differently.`)
}

// run executes the workload: objects are allocated in index order but
// accessed in a fixed shuffled order, repeatedly, with garbage allocated
// to drive GC cycles.
func run(knobs hcsgc.Knobs) (execSeconds float64, llcMisses uint64) {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes: 96 << 20,
		Knobs:        knobs,
	})
	defer rt.Close()
	obj := rt.Types.Register("obj", 3, nil)
	m := rt.NewMutator(2)
	defer m.Close()

	const n = 200_000
	arr := m.AllocRefArray(n)
	m.SetRoot(0, arr)
	for i := 0; i < n; i++ {
		o := m.Alloc(obj)
		m.StoreField(o, 0, uint64(i))
		m.StoreRef(m.LoadRoot(0), i, o)
	}

	order := rand.New(rand.NewSource(1)).Perm(n)
	for round := 0; round < 12; round++ {
		for k, idx := range order {
			o := m.LoadRef(m.LoadRoot(0), idx)
			_ = m.LoadField(o, 0)
			if k%10 == 0 {
				m.AllocWordArray(63) // garbage to trigger GC
			}
		}
	}
	// Runtime-wide numbers come from what mutators have published; this
	// goroutine owns m and is still attached, so it publishes first.
	m.Publish()
	return rt.ExecSeconds(), rt.MemStats().LLCMisses
}
