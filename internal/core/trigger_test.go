package core

import (
	"sync"
	"testing"
	"time"

	"hcsgc/internal/faultinject"
	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
)

// TestOccupancyTriggerFiresAtThePageTake: occupancy rises only when a
// mutator takes a page, so the occupancy trigger's first cycle must see the
// heap exactly as the page take that crossed TriggerPercent left it.
func TestOccupancyTriggerFiresAtThePageTake(t *testing.T) {
	h := heap.New(heap.Config{MaxBytes: 64 << 20}, nil)
	c := MustNew(h, objmodel.NewRegistry(), Config{})
	defer c.Stop()
	m := c.NewMutator(512)
	defer m.Close()
	for i := 0; h.UsedPercent() < c.cfg.TriggerPercent; i++ {
		m.SetRoot(i, m.AllocWordArray(16<<10)) // 128 KB, rooted: nothing is garbage
	}
	took := h.UsedPercent()
	m.Blocked(func() {
		for deadline := time.Now().Add(10 * time.Second); len(c.lat.Log()) == 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	})
	log := c.Stats().Cycles
	if len(log) == 0 {
		t.Fatalf("no cycle within 10 s of the heap reaching %.2f%%", took)
	}
	if cs := log[0]; cs.Trigger != "occupancy" || cs.HeapUsedBefore != took {
		t.Fatalf("first cycle: trigger %q at %.2f%% used, want \"occupancy\" at %.2f%% (the page take that crossed %.0f%%)",
			cs.Trigger, cs.HeapUsedBefore, took, c.cfg.TriggerPercent)
	}
}

// TestIdleHeapIsNotCollectedOverAndOver: a heap that sits above the
// trigger while nothing allocates has nothing new for a cycle to find, so
// it must not be collected again and again. At most the cycle the last
// page take triggered may complete while the mutator idles.
func TestIdleHeapIsNotCollectedOverAndOver(t *testing.T) {
	h := heap.New(heap.Config{MaxBytes: 64 << 20}, nil)
	c := MustNew(h, objmodel.NewRegistry(), Config{})
	defer c.Stop()
	m := c.NewMutator(512)
	defer m.Close()
	for i := 0; h.UsedPercent() < 78; i++ {
		m.SetRoot(i, m.AllocWordArray(16<<10)) // 128 KB, rooted: nothing is garbage
	}
	before := c.Cycles()
	m.Blocked(func() { time.Sleep(100 * time.Millisecond) })
	if n := c.Cycles() - before; n > 1 {
		t.Fatalf("%d cycles completed in 100 ms on an idle heap %.1f%% live, want at most 1", n, h.UsedPercent())
	}
}

// TestOccupancyTriggerHonoursPageTakesDuringACycle: a page a mutator takes
// while a triggered cycle runs is younger than that cycle's STW1 snapshot,
// so the cycle cannot collect it. The trigger that page take found due
// starts the next cycle as soon as the running one ends, while the mutator
// runs on without taking another page.
func TestOccupancyTriggerHonoursPageTakesDuringACycle(t *testing.T) {
	inj := faultinject.New(faultinject.Config{})
	h := heap.New(heap.Config{MaxBytes: 64 << 20, Injector: inj}, nil)
	c := MustNew(h, objmodel.NewRegistry(), Config{FaultInjector: inj})
	defer c.Stop()
	m := c.NewMutator(512)
	defer m.Close()
	// Hold the first cycle where its EC selection frees the garbage pages
	// (between STW2 and STW3) until the mutator has taken a page.
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	inj.SetHook(faultinject.PageFree, func(uint64) {
		once.Do(func() { close(held); <-release })
	})
	// pollUntil runs the mutator (it polls, so pauses proceed) until done.
	pollUntil := func(what string, done func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !done(); m.Safepoint() {
			if time.Now().After(deadline) {
				t.Fatalf("no %s within 10 s", what)
			}
		}
	}
	for i := 0; i < 32; i++ {
		m.AllocWordArray(16 << 10) // two pages of garbage for the cycle to free
	}
	i := 0
	for ; h.UsedPercent() < c.cfg.TriggerPercent; i++ {
		m.SetRoot(i, m.AllocWordArray(16<<10))
	}
	pollUntil("EC selection in the triggered cycle", func() bool {
		select {
		case <-held:
			return true
		default:
			return false
		}
	})
	for end := i + 16; i < end; i++ { // 16 × 128 KB: at least one page take
		m.SetRoot(i, m.AllocWordArray(16<<10))
	}
	close(release)
	pollUntil("second cycle", func() bool { return len(c.lat.Log()) >= 2 })
	if log := c.Stats().Cycles; log[1].Trigger != "occupancy" {
		t.Fatalf("second cycle triggered by %q, want \"occupancy\"", log[1].Trigger)
	}
}
