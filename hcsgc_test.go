package hcsgc

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestRuntimeDefaults(t *testing.T) {
	rt := MustNewRuntime(Options{})
	defer rt.Close()
	if rt.Heap.MaxBytes() != 256<<20 {
		t.Errorf("default heap = %d", rt.Heap.MaxBytes())
	}
	if rt.Mem == nil {
		t.Error("memory model should default on")
	}
	if rt.Machine.Cores != 4 {
		t.Errorf("default machine cores = %d", rt.Machine.Cores)
	}
}

func TestRuntimeInvalidKnobs(t *testing.T) {
	if _, err := NewRuntime(Options{Knobs: Knobs{ColdPage: true}}); err == nil {
		t.Fatal("invalid knobs must be rejected")
	}
}

func TestRuntimeEndToEnd(t *testing.T) {
	rt := MustNewRuntime(Options{
		HeapMaxBytes: 64 << 20,
		Knobs:        Knobs{Hotness: true, ColdPage: true, ColdConfidence: 1.0, LazyRelocate: true},
	})
	defer rt.Close()
	node := rt.Types.Register("node", 2, []int{0})
	m := rt.NewMutator(4)
	defer m.Close()

	// Build, collect, touch, collect, verify.
	const n = 5000
	arr := m.AllocRefArray(n)
	m.SetRoot(0, arr)
	for i := 0; i < n; i++ {
		obj := m.Alloc(node)
		m.StoreField(obj, 1, uint64(i))
		m.StoreRef(m.LoadRoot(0), i, obj)
	}
	m.RequestGC()
	for i := 0; i < n; i += 2 {
		m.LoadRef(m.LoadRoot(0), i)
	}
	m.RequestGC()
	for i := 0; i < n; i++ {
		obj := m.LoadRef(m.LoadRoot(0), i)
		if got := m.LoadField(obj, 1); got != uint64(i) {
			t.Fatalf("object %d payload = %d", i, got)
		}
		if i%128 == 0 {
			m.Safepoint()
		}
	}

	if rt.Collector.Cycles() != 2 {
		t.Errorf("cycles = %d, want 2", rt.Collector.Cycles())
	}
	if rt.ExecSeconds() <= 0 {
		t.Error("execution time must be positive")
	}
	ms := rt.MemStats()
	if ms.Loads == 0 || ms.LLCMisses == 0 {
		t.Error("cache model should have observed traffic")
	}
	st := rt.Collector.Stats()
	if len(st.Cycles) != 2 {
		t.Errorf("stats cycles = %d", len(st.Cycles))
	}
}

func TestRuntimeDisableMemModel(t *testing.T) {
	rt := MustNewRuntime(Options{DisableMemModel: true})
	defer rt.Close()
	m := rt.NewMutator(2)
	defer m.Close()
	obj := m.AllocWordArray(10)
	m.StoreField(obj, 0, 1)
	if m.LoadField(obj, 0) != 1 {
		t.Fatal("heap must work without memory model")
	}
	if got := rt.MemStats(); got.Loads != 0 {
		t.Fatal("disabled memory model must report zero stats")
	}
}

func TestRuntimeLedgerCollectsAllMutators(t *testing.T) {
	rt := MustNewRuntime(Options{})
	defer rt.Close()
	a := rt.NewMutator(1)
	b := rt.NewMutator(1)
	a.AllocWordArray(5)
	b.AllocWordArray(5)
	a.Close()
	b.Close()
	l := rt.Ledger()
	if len(l.MutatorCycles) != 2 {
		t.Fatalf("ledger mutators = %d, want 2 (closed mutators still count)", len(l.MutatorCycles))
	}
	if l.MutatorCycles[0] == 0 || l.MutatorCycles[1] == 0 {
		t.Fatal("mutator cycles must be recorded")
	}
}

func TestRuntimeDoubleCloseSafe(t *testing.T) {
	rt := MustNewRuntime(Options{})
	rt.Close()
	rt.Close()
}

func TestRuntimeExplicitGC(t *testing.T) {
	rt := MustNewRuntime(Options{})
	defer rt.Close()
	rt.GC()
	if rt.Collector.Cycles() != 1 {
		t.Fatal("explicit GC must run a cycle")
	}
}

// buildAndCollect gives the runtime something to release: a few thousand
// linked objects, collected twice so that pages were evacuated, freed and
// are waiting for their drop.
func buildAndCollect(m *Mutator, node *Type) Ref {
	const n = 3000
	arr := m.AllocRefArray(n)
	m.SetRoot(0, arr)
	for i := 0; i < n; i++ {
		obj := m.Alloc(node)
		m.StoreField(obj, 1, uint64(i))
		m.StoreRef(m.LoadRoot(0), i, obj)
	}
	m.RequestGC()
	m.RequestGC()
	return m.LoadRef(m.LoadRoot(0), 7)
}

// TestCloseWithAttachedMutatorReleasesNothing: a runtime closed while a
// mutator is still attached cannot prove that nothing reaches the heap any
// more, so it must keep its hands off it: the straggler goes on reading
// what it wrote.
func TestCloseWithAttachedMutatorReleasesNothing(t *testing.T) {
	rt := MustNewRuntime(Options{
		HeapMaxBytes: 64 << 20,
		Knobs:        Knobs{RelocateAllSmallPages: true},
	})
	node := rt.Types.Register("node", 2, []int{0})
	m := rt.NewMutator(4)
	buildAndCollect(m, node)
	rt.Close()
	for i := 0; i < 3000; i += 97 {
		if got := m.LoadField(m.LoadRef(m.LoadRoot(0), i), 1); got != uint64(i) {
			t.Fatalf("object %d reads %d after Runtime.Close with its mutator attached", i, got)
		}
	}
	m.AllocWordArray(100) // the heap still allocates, too
	m.Close()
}

// TestCloseDoesNotDeadlockLedgerReaders closes a runtime while a mutator is
// still attached and reading the ledger mid-run, as server and workload
// threads do. Close waits for a triggered cycle, that cycle waits in its
// stop-the-world for the mutator, and the mutator takes the runtime's lock
// in Ledger: Close must hold no lock while it waits or nobody moves.
func TestCloseDoesNotDeadlockLedgerReaders(t *testing.T) {
	for i := 0; i < 200; i++ {
		rt := MustNewRuntime(Options{HeapMaxBytes: 8 << 20, TriggerPercent: 5})
		stop, exited := make(chan struct{}), make(chan struct{})
		m := rt.NewMutator(1) // attached before Close can run: nothing is released
		go func() {
			defer close(exited)
			defer m.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// 32 KB: every few dozen allocations take a page, and every
				// page take past 5 % occupancy triggers a cycle.
				if ref, err := m.TryAllocWordArray(4 << 10); err == nil {
					m.SetRoot(0, ref)
				}
				rt.ExecSeconds()
				m.Safepoint()
			}
		}()
		// Not a synchronisation: long enough for a triggered cycle to be
		// running when Close arrives, which is the window the deadlock needs.
		time.Sleep(2 * time.Millisecond)
		// Two closers: concurrent calls both return once the first is done.
		closed := make(chan struct{}, 2)
		for c := 0; c < 2; c++ {
			go func() {
				rt.Close()
				closed <- struct{}{}
			}()
		}
		for c := 0; c < 2; c++ {
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("iteration %d: Runtime.Close did not return within 5s\n%s",
					i, buf[:runtime.Stack(buf, true)])
			}
		}
		close(stop)
		<-exited
	}
}

// TestLedgerReadsTheOnePauseTotal: pause cost is counted once, and the
// ledger, a mutator's virtual clock and the GC log agree on it; reading the
// ledger costs the same however long the cycle log has grown (ExecSeconds is
// called mid-run by serving threads). Bytes, not testing.AllocsPerRun: a
// copy of the log is one allocation at any length.
func TestLedgerReadsTheOnePauseTotal(t *testing.T) {
	rt := MustNewRuntime(Options{HeapMaxBytes: 8 << 20, DisableMemModel: true})
	defer rt.Close()
	m := rt.NewMutator(1)
	defer m.Close()
	m.SetRoot(0, m.Alloc(rt.Types.Register("node", 2, nil)))
	ledgerBytes := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			rt.ExecSeconds()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	m.RequestGC()
	m.RequestGC()
	few := ledgerBytes()
	for i := 0; i < 48; i++ {
		m.RequestGC()
	}
	// The slack absorbs a stray allocation by an earlier test's goroutine; a
	// copy of the 50-cycle log is two orders of magnitude above it.
	if many := ledgerBytes(); many > few+4096 {
		t.Errorf("100 ExecSeconds calls allocate %d bytes after 2 cycles and %d after 50", few, many)
	}
	var logged uint64
	for _, cs := range rt.Collector.Stats().Cycles {
		logged += cs.Pause1 + cs.Pause2 + cs.Pause3
	}
	if got := rt.Ledger().PauseCycles; got != logged || logged == 0 {
		t.Errorf("Ledger().PauseCycles = %d, the GC log's pauses sum to %d", got, logged)
	}
	if got := m.VirtualCycles() - m.Cycles(); got != logged {
		t.Errorf("the mutator's virtual clock carries %d pause cycles, want %d", got, logged)
	}
}

// TestCloseReleasesTheHeap pins the other half of the contract: once every
// mutator is closed, Close hands the heap's memory on, and a read through a
// reference kept across it fails loudly instead of seeing another
// runtime's data. The statistics stay readable.
func TestCloseReleasesTheHeap(t *testing.T) {
	rt := MustNewRuntime(Options{HeapMaxBytes: 64 << 20, Knobs: Knobs{RelocateAllSmallPages: true}})
	node := rt.Types.Register("node", 2, []int{0})
	m := rt.NewMutator(4)
	kept := buildAndCollect(m, node)
	m.Close()
	rt.Close()
	if st := rt.Collector.Stats(); len(st.Cycles) != 2 || st.GCRelocObjects == 0 {
		t.Errorf("statistics after Close: %d cycles, %d GC relocations", len(st.Cycles), st.GCRelocObjects)
	}
	if rt.ExecSeconds() <= 0 {
		t.Error("ExecSeconds after Close must stay readable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("read of a heap word after Close succeeded")
		}
	}()
	rt.Heap.LoadWord(nil, kept.Addr())
}

// TestClosedRuntimePlaneIsReused: the contention plane a runtime built for
// itself goes, on Close, to the next runtime that builds one, which finds
// it as a new plane would be after the same construction. A plane a
// telemetry sink serves, or one the caller passed in, is never handed on.
func TestClosedRuntimePlaneIsReused(t *testing.T) {
	opts := Options{HeapMaxBytes: 16 << 20}
	first := MustNewRuntime(opts)
	first.Close()
	reused := MustNewRuntime(opts)
	defer reused.Close()
	if reused.Contention != first.Contention {
		t.Fatal("the next runtime built a new contention plane")
	}
	own := opts
	own.Contention = NewContentionPlane()
	fresh := MustNewRuntime(own)
	if got, want := reused.Contention.Snapshot(), fresh.Contention.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("reused plane snapshots %+v, a new one %+v", got, want)
	}
	fresh.Close()
	if next := MustNewRuntime(opts); next.Contention == own.Contention {
		t.Error("a plane passed in Options.Contention was handed to the next runtime")
	} else {
		next.Close()
	}

	bound := opts
	bound.Telemetry = NewTelemetrySink()
	served := MustNewRuntime(bound)
	served.Close()
	if next := MustNewRuntime(opts); next.Contention == served.Contention {
		t.Error("a plane bound to a telemetry registry was handed to the next runtime")
	} else {
		next.Close()
	}
}
