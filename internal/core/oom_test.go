package core

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// oomEnv builds a collector over a deliberately tiny heap with a telemetry
// sink, so stall counters can be asserted. Its users exhaust the heap on
// purpose; the flight dumps that produces are discarded.
func oomEnv(t *testing.T, maxBytes uint64, cfg Config) (*Collector, *objmodel.Registry, *telemetry.Sink) {
	t.Helper()
	sink := telemetry.NewSink()
	cfg.Telemetry = sink
	cfg.Latency = latency.New(latency.Config{DumpTo: io.Discard})
	h := heap.New(heap.Config{MaxBytes: maxBytes}, nil)
	types := objmodel.NewRegistry()
	c, err := New(h, types, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, types, sink
}

// TestAllocStallRecovers fills the heap with garbage: every TLAB refill
// past the budget stalls, the stall-triggered cycle reclaims the garbage,
// and allocation proceeds — no occupancy trigger involved, no error,
// stalls counted.
func TestAllocStallRecovers(t *testing.T) {
	// 8 MB heap = 4 small pages; each iteration allocates ~1 MB garbage.
	c, _, sink := oomEnv(t, 8<<20, Config{TriggerPercent: 101})
	m := c.NewMutator(1)
	for i := 0; i < 100; i++ {
		ref, err := m.TryAllocWordArray(16 << 10) // 128 KB
		if err != nil {
			t.Fatalf("iteration %d: %v (stalls=%d)", i, err, m.Stalls)
		}
		m.SetRoot(0, ref) // keep only the newest: everything else is garbage
	}
	if m.Stalls == 0 {
		t.Fatal("no allocation stalls on a 100x oversubscribed heap")
	}
	if got := sink.Metrics().Counter("hcsgc_alloc_stalls_total", "").Value(); got != m.Stalls {
		t.Fatalf("hcsgc_alloc_stalls_total = %d, want %d", got, m.Stalls)
	}
	if c.Cycles() == 0 {
		t.Fatal("stalls never triggered a collection")
	}
	m.Close()
}

// TestAllocExhaustionReturnsStructuredError keeps everything live so the
// stall-triggered cycles cannot reclaim anything: the retry budget runs
// out and TryAlloc returns ErrOutOfMemory with an occupancy snapshot and
// the virtual time it stalled, no panic anywhere.
func TestAllocExhaustionReturnsStructuredError(t *testing.T) {
	c, _, _ := oomEnv(t, 4<<20, Config{TriggerPercent: 101, StallRetries: 3})
	// A second mutator works on while the first stalls: every stall's
	// stop-the-world waits for it to publish more work, so the virtual
	// clock moves on by more than the pauses.
	stop, done := make(chan struct{}), make(chan struct{})
	busy := c.NewMutator(0)
	go func() {
		defer close(done)
		defer busy.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			busy.Work(publishEvery)
			busy.Safepoint()
		}
	}()
	defer func() { close(stop); <-done }()
	m := c.NewMutator(64)
	var err error
	for i := 0; i < 64; i++ {
		var ref heap.Ref
		ref, err = m.TryAllocWordArray(16 << 10) // 128 KB small-class, all rooted
		if err != nil {
			break
		}
		m.SetRoot(i, ref)
	}
	if err == nil {
		t.Fatal("64 rooted 128KB arrays fit a 4MB heap?")
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory in chain", err)
	}
	if !errors.Is(err, heap.ErrHeapFull) {
		t.Fatalf("err = %v, want heap.ErrHeapFull in chain", err)
	}
	var oom *OutOfMemoryError
	if !errors.As(err, &oom) {
		t.Fatalf("err %T is not *OutOfMemoryError", err)
	}
	if oom.Attempts != 4 { // StallRetries=3 → 4 attempts
		t.Fatalf("Attempts = %d, want 4", oom.Attempts)
	}
	if oom.UsedBytes == 0 || oom.MaxBytes != 4<<20 || oom.Size != (16<<10+1)*heap.WordSize {
		t.Fatalf("occupancy snapshot wrong: %+v", oom)
	}
	if m.Stalls == 0 {
		t.Fatal("no stalls recorded before OOM")
	}
	// Only the failing allocation stalled, so it accrued all the stall time.
	if oom.StalledCycles == 0 || oom.StalledCycles != m.StallVirtualCycles() {
		t.Fatalf("StalledCycles = %d, want the mutator's %d stalled virtual cycles, > 0", oom.StalledCycles, m.StallVirtualCycles())
	}
	// The heap remains usable: dropping roots and collecting recovers.
	for i := 0; i < 64; i++ {
		m.SetRoot(i, heap.NullRef)
	}
	m.RequestGC()
	if _, err := m.TryAllocWordArray(16 << 10); err != nil {
		t.Fatalf("allocation after recovery failed: %v", err)
	}
	m.Close()
}

// TestAllocPanicsCarryTypedError checks the panicking convenience wrappers
// panic with the same *OutOfMemoryError value TryAlloc returns, so even
// legacy callers can recover and inspect it.
func TestAllocPanicsCarryTypedError(t *testing.T) {
	c, types, _ := oomEnv(t, 4<<20, Config{TriggerPercent: 101, StallRetries: 2})
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(64)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Alloc did not panic on exhaustion")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("panic value %v is not an ErrOutOfMemory error", r)
		}
		m.Close()
	}()
	for i := 0; i < 64; i++ {
		m.SetRoot(i, m.AllocWordArray(32<<10))
	}
	_ = m.Alloc(node)
	t.Fatal("unreachable")
}

// TestExhaustionLeavesNoGoroutines drives the OOM path with the occupancy
// trigger on end to end and checks the collector winds down leak-free: the
// workload runner depends on this to survive OOM without leaking a cycle or
// worker goroutine per failed run.
func TestExhaustionLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c, _, _ := oomEnv(t, 4<<20, Config{TriggerPercent: 70, StallRetries: 2})
	m := c.NewMutator(64)
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		var ref heap.Ref
		ref, err = m.TryAllocWordArray(32 << 10)
		if err == nil {
			m.SetRoot(i, ref)
		}
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	m.Close()
	c.Stop()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after OOM wind-down", before, runtime.NumGoroutine())
}
