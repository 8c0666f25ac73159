package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"hcsgc/internal/contention"
	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
	"hcsgc/internal/telemetry/latency"
)

// TestPublishedClockExactUnderSTW: mutators keep their ledgers private and
// publish them before parking, so with the world stopped the collector's
// clock — built from published ledgers only — must equal the maximum of
// the owners' exact clocks, however much each had accumulated since its
// last periodic publish.
func TestPublishedClockExactUnderSTW(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})
	var stop atomic.Bool
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	muts := make([]*Mutator, 2)
	for g := range muts {
		wg.Add(1)
		ready.Add(1)
		go func(g int) {
			defer wg.Done()
			m := c.NewMutator(4)
			defer m.Close()
			muts[g] = m
			buildObjectArray(m, node, 200)
			ready.Done()
			// Unequal amounts of work between polls, all of it well under
			// publishEvery, so most polls leave the ledger unpublished.
			for i := 0; !stop.Load(); i++ {
				for k := 0; k <= g; k++ {
					m.LoadField(touch(m, (i+k)%200), 1)
				}
				m.Work(uint64(3 + g))
				m.Safepoint()
			}
		}(g)
	}
	ready.Wait()
	for round := 0; round < 20; round++ {
		c.sp.stopTheWorld(0, nil)
		var want uint64
		for _, m := range muts {
			// Parked: reading the owner's view is ordered by the handshake.
			if own, pub := m.Cycles(), m.PublishedCycles(); own != pub {
				t.Errorf("round %d: parked mutator published %d, its ledger says %d", round, pub, own)
			} else if own > want {
				want = own
			}
		}
		if got := c.VirtualCycles(); got != want+c.PauseCycles() {
			t.Errorf("round %d: VirtualCycles() = %d under STW, want max owner clock %d + pauses %d",
				round, got, want, c.PauseCycles())
		}
		c.sp.resumeTheWorld()
	}
	stop.Store(true)
	wg.Wait()
	// Closed: published for good.
	for _, m := range muts {
		if own, pub := m.Cycles(), m.PublishedCycles(); own != pub {
			t.Errorf("closed mutator published %d, its ledger says %d", pub, own)
		}
	}
}

// TestStallStartsAtOwnLatestAccess: a stalling mutator publishes before it
// samples the clock, so the stall it records starts at its own latest
// access, not at its last periodic publish. With one mutator that makes a
// stall exactly as long as the pauses of the cycle run inside it: nothing
// is left over to charge to the mutator's stall clock, and the longest
// recorded stall is the costliest stall-triggered cycle's pause total.
func TestStallStartsAtOwnLatestAccess(t *testing.T) {
	tr := latency.New(latency.Config{})
	mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
	h := heap.New(heap.Config{MaxBytes: 8 << 20}, mem)
	types := objmodel.NewRegistry()
	c, err := New(h, types, Config{Latency: tr, TriggerPercent: 101, StallRetries: 64})
	if err != nil {
		t.Fatal(err)
	}
	node := types.Register("node", 2, []int{0})
	m := c.NewMutator(4)
	buildObjectArray(m, node, 100)
	for i := 0; i < 20_000 && m.Stalls < 3; i++ {
		// A little unpublished work before every allocation.
		m.LoadField(touch(m, i%100), 1)
		m.AllocWordArray(127)
	}
	if m.Stalls == 0 {
		t.Skip("no allocation stall triggered; heap sizing changed")
	}
	if sv := m.StallVirtualCycles(); sv != 0 {
		t.Errorf("a lone mutator's stalls charged %d cycles beyond their pauses: the stall clock started before its latest access", sv)
	}
	var maxPauses uint64
	for _, cs := range c.Stats().Cycles {
		if p := cs.Pause1 + cs.Pause2 + cs.Pause3; cs.Trigger == "allocation stall" && p > maxPauses {
			maxPauses = p
		}
	}
	if got := tr.Report().Stall.Max; got != float64(maxPauses) {
		t.Errorf("longest recorded stall = %v cycles, want the costliest stall cycle's pauses %d", got, maxPauses)
	}
	m.Close()
}

// TestForwardOpsFoldedExactly: relocators tally forwarding-table inserts
// privately and fold them into the heap.forwardTable site when they
// publish, so once everyone has, the site has counted every insert, won or
// lost. Under lazy relocation there is no race to lose here (one mutator,
// the drain running while it is blocked in RequestGC): the count must be
// exactly the objects relocated. Otherwise the drain races the mutator and
// each lost race is one more insert.
func TestForwardOpsFoldedExactly(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		plane := contention.New()
		mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
		h := heap.New(heap.Config{MaxBytes: 128 << 20, Contention: plane}, mem)
		types := objmodel.NewRegistry()
		c, err := New(h, types, Config{Knobs: Knobs{LazyRelocate: lazy, RelocateAllSmallPages: true}, Contention: plane})
		if err != nil {
			t.Fatal(err)
		}
		node := types.Register("node", 2, []int{0})
		m := c.NewMutator(4)
		buildObjectArray(m, node, 3000)
		m.RequestGC()
		for i := 0; i < 3000; i += 2 {
			touch(m, i)
		}
		m.RequestGC()
		m.RequestGC()
		m.Close()
		c.relocWG.Wait()
		st := c.Stats()
		relocated := st.MutatorRelocObjects + st.GCRelocObjects
		if relocated == 0 {
			t.Fatalf("lazy=%v: nothing relocated; test too small to be meaningful", lazy)
		}
		var ops uint64
		for _, o := range plane.Snapshot().CAS {
			if o.Name == "heap.forwardTable" {
				ops = o.Ops
			}
		}
		if ops < relocated || (lazy && ops != relocated) {
			t.Errorf("lazy=%v: heap.forwardTable ops = %d, want the %d objects relocated (mutator %d, GC %d)",
				lazy, ops, relocated, st.MutatorRelocObjects, st.GCRelocObjects)
		}
	}
}

// TestPageBumpsFoldedExactly: page bumps are tallied by their owners and
// folded into the heap.pageBump site where they publish, so once everyone
// has, the site has counted one op per allocation plus one per relocation
// copy (every forwarding insert, won or lost, follows exactly one copy).
// Lost bump races stay counted at the site, as retries.
func TestPageBumpsFoldedExactly(t *testing.T) {
	plane := contention.New()
	mem := simmem.MustNewHierarchy(simmem.DefaultConfig())
	h := heap.New(heap.Config{MaxBytes: 128 << 20, Contention: plane}, mem)
	types := objmodel.NewRegistry()
	c, err := New(h, types, Config{Knobs: Knobs{RelocateAllSmallPages: true}, Contention: plane})
	if err != nil {
		t.Fatal(err)
	}
	node := types.Register("node", 2, []int{0})
	const n = 3000
	m := c.NewMutator(4)
	buildObjectArray(m, node, n) // the array and n nodes: n+1 allocations
	m.RequestGC()
	for i := 0; i < n; i += 2 {
		touch(m, i)
	}
	m.RequestGC()
	m.Close()
	c.relocWG.Wait()
	ops := map[string]uint64{}
	for _, o := range plane.Snapshot().CAS {
		ops[o.Name] = o.Ops
	}
	if ops["heap.forwardTable"] == 0 {
		t.Fatal("nothing relocated; test too small to be meaningful")
	}
	if want := n + 1 + ops["heap.forwardTable"]; ops["heap.pageBump"] != want {
		t.Errorf("heap.pageBump ops = %d, want %d allocations + %d relocation copies",
			ops["heap.pageBump"], n+1, ops["heap.forwardTable"])
	}
}
