package workloads

import (
	"io"
	"math"
	"runtime"
	"testing"

	"hcsgc"
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
// whose inputs, heap memory, tag arrays and per-run scratch are all
// already in the process allocates every time. The least, because the
// collector's mark buffers still take fresh arena slabs on a rep whose
// cycles need more of them at once than any rep before (ROADMAP item 19's
// GC-side half), which adds up to about 50 KB to some reps.
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
