package simmem

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentSnapshotConservation hammers a Hierarchy from several
// goroutines (each with its own Core, as the runtime does, publishing its
// ledger every so often) while another goroutine continuously reads the
// published per-core and system views. Run under -race: the reader touches
// nothing but the mirror, so a foreign read of an owner's plain ledger
// fails the build here. Cycles is derived from the miss ledger rather than
// counted, so the reader also holds it to never decreasing, per core and
// system-wide, and each level's misses to never exceeding the accesses
// that reached it even when a snapshot races a Publish. The prefetch counts
// too never go backwards, and useful prefetches never exceed prefills.
// Once every owner
// has published and stopped, the published view must equal the owners'
// own, and the counters must conserve:
//
//	loads + stores           == lines demanded
//	LLCHits + LLCMisses      == Σ per-core L2Misses (every demand L2 miss
//	                            consults the LLC exactly once; prefetch
//	                            fills count as Prefills, not hits/misses)
//	Cycles                   == Σ over levels of hits there × its latency
func TestConcurrentSnapshotConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.PrefetchDepth = 2 // exercise the prefetch path's shared-LLC locking
	h := MustNewHierarchy(cfg)

	const (
		goroutines = 4
		perG       = 30000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var cores [goroutines]*Core
	for g := range cores {
		cores[g] = h.NewCore()
	}

	// Snapshot reader: neither the system totals nor any core's derived
	// cycle count may decrease between reads.
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var prev SystemStats
		var prevCycles [goroutines]uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Stats()
			if s.Loads < prev.Loads || s.Stores < prev.Stores || s.Cycles < prev.Cycles ||
				s.L2Misses < prev.L2Misses || s.LLCMisses < prev.LLCMisses ||
				s.L2Prefills < prev.L2Prefills || s.PrefUseful < prev.PrefUseful {
				t.Errorf("snapshot went backwards: %+v then %+v", prev, s)
				return
			}
			if s.L1Misses > s.Loads+s.Stores || s.L2Misses > s.L1Misses || s.LLCMisses > s.L2Misses ||
				s.LLCHits+s.LLCMisses != s.L2Misses || s.PrefUseful > s.L2Prefills {
				t.Errorf("snapshot racing a publish is torn: %+v", s)
				return
			}
			prev = s
			for g, core := range cores {
				cyc := core.PublishedCycles()
				if cyc < prevCycles[g] {
					t.Errorf("core %d Cycles went backwards: %d then %d", g, prevCycles[g], cyc)
					return
				}
				prevCycles[g] = cyc
			}
		}
	}()

	var wantLoads, wantStores atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			core := cores[g]
			defer core.Publish()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			base := uint64(g+1) << 28
			for i := 0; i < perG; i++ {
				// Single-line accesses: mix of sequential (prefetchable)
				// and random, loads and stores.
				var addr uint64
				if i%4 != 3 {
					addr = base + uint64(i)*LineSize
				} else {
					addr = base + uint64(rng.Intn(1<<20))*LineSize
				}
				if i%5 == 0 {
					core.Store(addr, 8)
					wantStores.Add(1)
				} else {
					core.Load(addr, 8)
					wantLoads.Add(1)
				}
				if i%1000 == 0 {
					core.Stats() // self-snapshot mid-run
					core.Publish()
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	s := h.Stats()
	if s.Loads != wantLoads.Load() || s.Stores != wantStores.Load() {
		t.Errorf("demand counts: got loads=%d stores=%d, want %d/%d",
			s.Loads, s.Stores, wantLoads.Load(), wantStores.Load())
	}
	if got := s.LLCHits + s.LLCMisses; got != s.L2Misses {
		t.Errorf("LLC conservation: hits(%d)+misses(%d)=%d != ΣL2Misses %d",
			s.LLCHits, s.LLCMisses, got, s.L2Misses)
	}
	lat := cfg.Lat
	wantCycles := (s.Loads+s.Stores-s.L1Misses)*lat.L1 + (s.L1Misses-s.L2Misses)*lat.L2 +
		s.LLCHits*lat.LLC + s.LLCMisses*lat.Mem
	if s.Cycles != wantCycles {
		t.Errorf("cycle ledger: Cycles = %d, want Σ level hits × latency = %d (%+v)", s.Cycles, wantCycles, s)
	}
	var owners CoreStats
	for _, core := range cores {
		owners.Add(core.Stats())
		if pub, own := core.PublishedCycles(), core.Cycles(); pub != own {
			t.Errorf("published Cycles %d != owner's %d after its final Publish", pub, own)
		}
	}
	if owners != s.CoreStats {
		t.Errorf("Σ Core.Stats() = %+v, Hierarchy.Stats() = %+v", owners, s.CoreStats)
	}
	if s.L1Misses < s.L2Misses {
		t.Errorf("L2 saw more demand (%d) than L1 missed (%d)", s.L2Misses, s.L1Misses)
	}
	if s.LLCMisses == 0 || s.PrefUseful == 0 {
		t.Errorf("workload never reached memory or used a prefetch; test too small to be meaningful (%+v)", s)
	}
}

// TestLLCDisjointSetsConcurrent: how the shared LLC is locked decides only
// who may touch a set at a given moment, never what the model computes.
// Two cores replay fixed seeded streams whose lines fall in disjoint LLC
// set ranges (sets [0, 1024) and [2048, 3072) of DefaultConfig; a prefetch
// runs at most 4 × 64 lines ahead, so prefetch fills stay disjoint too),
// once concurrently and once one after the other. Every counter, per core
// and system-wide, must come out the same.
func TestLLCDisjointSetsConcurrent(t *testing.T) {
	const (
		setBits  = 12 // DefaultConfig's LLC: 4096 sets
		rangeLen = 1024
		perCore  = 40000
	)
	firstSet := [2]uint64{0, 2048}
	replay := func(c *Core, g int) {
		rng := rand.New(rand.NewSource(int64(g + 7)))
		addrOf := func(tag, set uint64) uint64 {
			return tag<<(setBits+lineShift) | (firstSet[g]+set%rangeLen)<<lineShift
		}
		for i := 0; i < perCore; {
			tag, set := uint64(rng.Intn(1<<10)), uint64(rng.Intn(rangeLen))
			// Half the time a sequential run the prefetcher confirms, the
			// rest scattered lines.
			run := 1
			if rng.Intn(2) == 0 {
				run = 8 + rng.Intn(24)
			}
			for k := 0; k < run && i < perCore; k, i = k+1, i+1 {
				addr := addrOf(tag, set+uint64(k)) + uint64(rng.Intn(LineSize-8))
				if i%5 == 0 {
					c.Store(addr, 8)
				} else {
					c.Load(addr, 8)
				}
			}
		}
		c.Publish()
	}
	run := func(concurrent bool) (SystemStats, [2]CoreStats) {
		h := MustNewHierarchy(DefaultConfig())
		cores := [2]*Core{h.NewCore(), h.NewCore()}
		if concurrent {
			var wg sync.WaitGroup
			for g, c := range cores {
				wg.Add(1)
				go func() {
					defer wg.Done()
					replay(c, g)
				}()
			}
			wg.Wait()
		} else {
			for g, c := range cores {
				replay(c, g)
			}
		}
		return h.Stats(), [2]CoreStats{cores[0].Stats(), cores[1].Stats()}
	}
	seqSys, seqCores := run(false)
	conSys, conCores := run(true)
	if conSys != seqSys {
		t.Errorf("Hierarchy.Stats differ:\nsequential: %+v\nconcurrent: %+v", seqSys, conSys)
	}
	for g := range seqCores {
		if conCores[g] != seqCores[g] {
			t.Errorf("core %d Stats differ:\nsequential: %+v\nconcurrent: %+v", g, seqCores[g], conCores[g])
		}
	}
	if seqSys.LLCMisses == 0 || seqSys.LLCHits == 0 || seqSys.PrefIssued == 0 {
		t.Errorf("streams never exercised the LLC and prefetcher: %+v", seqSys)
	}
}
