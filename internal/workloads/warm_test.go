package workloads

import (
	"io"
	"math"
	"runtime"
	"testing"

	"hcsgc"
	"hcsgc/internal/core"
)

// Table 2's configs 16 (H+CP cc=1 lazy) and 4 (all+lazy), the ones the
// benchmark runs fig7/fig13 and kv under.
var (
	knobsHCPLazy = hcsgc.Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true}
	knobsAllLazy = hcsgc.Knobs{RelocateAllSmallPages: true, LazyRelocate: true}
)

// warmRepAlloc runs w four times in a row with one seed, each rep with the
// cache model on and a latency tracker of its own built before the
// measured window (as a benchmark harness builds one), and returns the
// least Go heap bytes one of the last three reps allocated: what a rep
// whose inputs, heap memory, tag arrays, mark buffers and per-run scratch
// are all already in the process allocates every time. The least, because
// the arena's free lists hold only what earlier reps had at once: a rep
// whose cycles commit more page backings or forwarding slabs at once than
// any rep before takes fresh ones, which adds tens of KB to some reps.
func warmRepAlloc(t *testing.T, id string, cfg RunConfig) uint64 {
	t.Helper()
	w := mustGet(t, id)
	least := uint64(math.MaxUint64)
	for rep := range 4 {
		cfg.Latency = hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: io.Discard, FlightRecords: 512})
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(t, w, cfg)
		runtime.ReadMemStats(&after)
		if rep > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return least
}

// checkWarmRep fails the test when a warm rep of cfg allocates more than
// limit bytes.
func checkWarmRep(t *testing.T, id string, cfg RunConfig, limit uint64) {
	got := warmRepAlloc(t, id, cfg)
	if got > limit {
		t.Fatalf("a warm %s rep allocated %.0f KB, want at most %.0f KB", id, kib(got), kib(limit))
	}
	t.Logf("warm %s rep: %.0f KB", id, kib(got))
}

func kib(b uint64) float64 { return float64(b) / (1 << 10) }

// TestWarmGraphRepAllocatesUnder64KB: a warm fig7 rep reuses the graph, the
// heap and Biconnectivity's DFS scratch, and allocates at most 64 KB.
func TestWarmGraphRepAllocatesUnder64KB(t *testing.T) {
	checkWarmRep(t, "fig7", RunConfig{Knobs: knobsHCPLazy, Seed: 1, Scale: 0.05}, 64<<10)
}

// TestWarmJBBRepAllocatesUnder64KB: a warm fig13 rep reuses its epoch
// latency buffer and allocates at most 64 KB.
func TestWarmJBBRepAllocatesUnder64KB(t *testing.T) {
	checkWarmRep(t, "fig13", RunConfig{Knobs: knobsHCPLazy, Seed: 1, Scale: 0.1}, 64<<10)
}

// TestWarmKVRepAllocatesUnder64KB: a warm kv rep reuses the schedule, its
// server threads' ledgers and the run's own ledger, and allocates at most
// 64 KB.
func TestWarmKVRepAllocatesUnder64KB(t *testing.T) {
	checkWarmRep(t, "kv", RunConfig{Knobs: knobsAllLazy, Seed: 1, Scale: 0.05, Mutators: 2, LoadFactor: 1}, 64<<10)
}

// TestWarmSynRepAllocatesUnder64KB: a warm fig4 rep takes its mark buffers
// from the ones earlier reps released, and its mutator's partial flushes
// share buffers instead of taking one each, so it allocates at most 64 KB.
func TestWarmSynRepAllocatesUnder64KB(t *testing.T) {
	checkWarmRep(t, "fig4", RunConfig{Knobs: knobsHCPLazy, Seed: 1, Scale: 0.03}, 64<<10)
}

// TestWarmRepsHoldFewMarkBuffers: the process's spare mark buffers are the
// most any run released so far held at once. After four fig4 reps that is
// at most 1,024 buffers (2 MB): partial flushes are packed, so a mark
// phase holds buffers for the gray objects in flight, not one per flush.
func TestWarmRepsHoldFewMarkBuffers(t *testing.T) {
	warmRepAlloc(t, "fig4", RunConfig{Knobs: knobsHCPLazy, Seed: 1, Scale: 0.05})
	const limit = 1024
	held := core.SpareMarkBuffers()
	if held == 0 {
		t.Fatal("no mark buffer came back to the process's free list")
	}
	if held > limit {
		t.Fatalf("the process holds %d mark buffers after four fig4 reps, want at most %d", held, limit)
	}
	t.Logf("mark buffers held: %d", held)
}
