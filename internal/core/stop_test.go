package core

import (
	"runtime"
	"strings"
	"testing"

	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/telemetry"
)

// collectorFrames returns the stack of every goroutine that is doing the
// collector's work: a GC worker in a mark or drain loop, or a cycle in
// progress. A goroutine that has left the worker's loop and is on its way
// out of the closure that signalled its exit (wg.Done) is not a finding.
func collectorFrames() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "hcsgc/internal/core.(*gcWorker)") ||
			strings.Contains(g, "hcsgc/internal/core.(*Collector).runCycle(") {
			out = append(out, g)
		}
	}
	return out
}

// TestStopWaitsForRelocationDrain: a non-lazy cycle returns with its
// relocation drain still running on the worker goroutines. Stop must not
// return before they have exited and published — otherwise they outlive
// the runtime's Close, race whatever reads the statistics after it, and
// keep using a heap the runtime is about to hand on.
func TestStopWaitsForRelocationDrain(t *testing.T) {
	c, types := testEnv(t, Knobs{RelocateAllSmallPages: true})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	const n = 60000
	buildObjectArray(m, node, n)
	m.RequestGC() // returns while the workers drain the evacuation set
	m.Close()
	if !c.Stop() {
		t.Fatal("collector not quiet with its only mutator closed")
	}
	if left := collectorFrames(); len(left) != 0 {
		t.Fatalf("%d collector goroutines still running after Stop:\n%s", len(left), strings.Join(left, "\n\n"))
	}
	// Everything the workers relocated is in the statistics now: the
	// folded counters equal the workers' own tallies.
	var byWorkers uint64
	for _, w := range c.workers {
		byWorkers += w.ctx.relocated
	}
	byWorkers += c.pauseCtx.relocated
	st := c.Stats()
	if st.GCRelocObjects != byWorkers || st.GCRelocObjects+st.MutatorRelocObjects < n {
		t.Fatalf("Stats after Stop: GC relocated %d (workers tallied %d), mutator %d; want all %d objects",
			st.GCRelocObjects, byWorkers, st.MutatorRelocObjects, n)
	}
}

// TestStopWaitsForTriggeredCycle: a cycle the occupancy trigger starts
// runs on a goroutine of its own. A mutator that triggers one and detaches
// at once leaves the collector quiet, and the runtime releases the heap
// right after Stop: Stop must not return before that cycle has.
func TestStopWaitsForTriggeredCycle(t *testing.T) {
	h := heap.New(heap.Config{MaxBytes: 16 << 20}, nil)
	c := MustNew(h, objmodel.NewRegistry(), Config{TriggerPercent: 1})
	m := c.NewMutator(1)
	m.SetRoot(0, m.AllocWordArray(16)) // the TLAB refill takes 2 of 16 MB
	m.Close()
	if !c.Stop() {
		t.Fatal("collector not quiet with its only mutator closed")
	}
	if got := c.Cycles(); got != 1 {
		t.Fatalf("%d cycles when Stop returned, want the 1 the page take triggered", got)
	}
	if left := collectorFrames(); len(left) != 0 {
		t.Fatalf("%d collector goroutines still running after Stop:\n%s", len(left), strings.Join(left, "\n\n"))
	}
}

// TestStopWithAttachedMutatorIsNotQuiet: a mutator still attached can
// start another cycle (its page takes trigger one, an allocation stall
// runs one), so the collector must not report itself quiet.
func TestStopWithAttachedMutatorIsNotQuiet(t *testing.T) {
	c, _ := testEnv(t, Knobs{})
	m := c.NewMutator(1)
	if c.Stop() {
		t.Fatal("Stop reported quiet with a mutator attached")
	}
	m.Close()
	if !c.Stop() {
		t.Fatal("Stop not quiet after the last mutator closed")
	}
}

// TestRelocationTalliesFoldExactly: relocation wins are tallied by whoever
// won them and folded into the shared counters at publish points. At each
// point the contract names — under STW (here: after a cycle the mutator
// itself requested), after the mutator's Publish, after Close and Stop —
// Collector.Stats and the telemetry counters must read the same totals, and
// account for every relocated object exactly once.
func TestRelocationTalliesFoldExactly(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		sink := telemetry.NewSink()
		c, types := testEnv(t, Knobs{RelocateAllSmallPages: true, LazyRelocate: lazy})
		c.tm = newColTelemetry(sink, c)
		node := types.Register("node", 2, []int{0})
		m := c.NewMutator(4)
		const n = 8000
		buildObjectArray(m, node, n)
		m.RequestGC()
		for i := 0; i < n; i += 2 {
			touch(m, i) // mutator wins (lazy) or finds the drain's result
		}
		m.RequestGC() // lazy: the cycle starts by draining the other half
		m.Close()
		c.Stop()

		st := c.Stats()
		var owners [2]uint64 // by telemetry.RelocByGC / RelocByMutator
		for _, w := range c.workers {
			owners[telemetry.RelocByGC] += w.ctx.relocated
		}
		owners[telemetry.RelocByGC] += c.pauseCtx.relocated
		owners[telemetry.RelocByMutator] = m.ctx.relocated
		if st.GCRelocObjects != owners[telemetry.RelocByGC] || st.MutatorRelocObjects != owners[telemetry.RelocByMutator] {
			t.Errorf("lazy=%v: Stats GC %d mutator %d, owners tallied GC %d mutator %d", lazy,
				st.GCRelocObjects, st.MutatorRelocObjects, owners[0], owners[1])
		}
		if lazy && st.MutatorRelocObjects < n/2 {
			t.Errorf("lazy: mutator relocated %d, want at least the %d it touched first", st.MutatorRelocObjects, n/2)
		}
		if total := st.GCRelocObjects + st.MutatorRelocObjects; total < n {
			t.Errorf("lazy=%v: %d objects relocated in total, want at least %d", lazy, total, n)
		}
		served := func(name, who string) uint64 { return sink.Metrics().Counter(name, "", "who", who).Value() }
		if got := served("hcsgc_reloc_objects_total", "gc"); got != st.GCRelocObjects {
			t.Errorf("lazy=%v: telemetry counts %d GC relocations, Stats %d", lazy, got, st.GCRelocObjects)
		}
		if got := served("hcsgc_reloc_objects_total", "mutator"); got != st.MutatorRelocObjects {
			t.Errorf("lazy=%v: telemetry counts %d mutator relocations, Stats %d", lazy, got, st.MutatorRelocObjects)
		}
		if got, want := served("hcsgc_reloc_bytes_total", "gc")+served("hcsgc_reloc_bytes_total", "mutator"),
			st.GCRelocBytes+st.MutatorRelocBytes; got != want || want == 0 {
			t.Errorf("lazy=%v: telemetry counts %d relocated bytes, Stats %d", lazy, got, want)
		}
	}
}

// TestMarkBuffersAreRecycled: gray objects travel in fixed buffers that
// the pool takes back. Between cycles every buffer ever made but the one a
// mutator keeps sits in the pool's free list, so its length counts them:
// however many cycles mark the same graph, there are never more than one
// cycle can have in flight at once — not one per chunk handed over, as
// when every spill was a fresh slice.
func TestMarkBuffersAreRecycled(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	defer m.Close()
	const n = 50000 // scanning the array grays them all: n/markChunk buffers' worth
	buildObjectArray(m, node, n)
	const cycles = 5
	for i := 0; i < cycles; i++ {
		m.RequestGC()
	}
	c.pool.mu.Lock()
	made := count(c.pool.free)
	c.pool.mu.Unlock()
	if made == 0 {
		t.Fatal("no buffer came back to the pool")
	}
	if perCycle := n / markChunk; made > 2*perCycle {
		t.Fatalf("%d mark buffers made over %d cycles of %d chunks each: they are not being reused", made, cycles, perCycle)
	}
}
