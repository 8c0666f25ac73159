package heap_test

import (
	"runtime"
	"testing"

	"hcsgc"
	"hcsgc/internal/heap"
	"hcsgc/internal/workloads"
)

// TestSecondRunRecyclesTheFirst is the arena's reason to exist, end to end:
// of two identical workload runs in one process the second must build its
// heap from what the first released. The bound — the second run allocates
// at most a third of what the first did — is loose against what is
// measured (about a tenth: what remains is per-run bookkeeping such as the
// page table and the cache model's tag arrays) and far from what no
// recycling gives (the same again).
func TestSecondRunRecyclesTheFirst(t *testing.T) {
	w, err := workloads.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	heap.ResetArena()
	var alloc [2]uint64
	var check [2]uint64
	for i := range alloc {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := w.Run(workloads.RunConfig{
			Knobs: hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true},
			Seed:  1,
			Scale: 0.02,
			// No background trigger, and a heap the run fills twice: cycles
			// start only when the single mutator stalls, so both runs
			// demand the same pages at the same points. (Under the
			// wall-clock driver one run in ten wants a second 32 MB medium
			// page the other never had, which the arena cannot have.)
			HeapMaxBytes:  40 << 20,
			FaultInjector: hcsgc.NewFaultInjector(hcsgc.FaultConfig{SuppressDriver: true}),
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.GCCycleCount == 0 {
			t.Fatal("no GC cycle: in-run recycling not exercised")
		}
		alloc[i], check[i] = after.TotalAlloc-before.TotalAlloc, res.Check
	}
	if check[0] != check[1] {
		t.Fatalf("checksum %#x on recycled memory, %#x on fresh", check[1], check[0])
	}
	if alloc[1] > alloc[0]/3 {
		t.Fatalf("second run allocated %.1f MB, first %.1f MB: want at most a third", mb(alloc[1]), mb(alloc[0]))
	}
	t.Logf("first run %.1f MB, second %.1f MB", mb(alloc[0]), mb(alloc[1]))
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
