package simmem

import (
	"maps"
	"math/rand"
	"sync"
	"testing"

	"hcsgc/internal/arena"
)

func smallConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:            CacheConfig{Name: "L1", Size: 4 << 10, Ways: 4},
		L2:            CacheConfig{Name: "L2", Size: 32 << 10, Ways: 8},
		LLC:           CacheConfig{Name: "LLC", Size: 256 << 10, Ways: 8},
		Lat:           Latencies{L1: 4, L2: 12, LLC: 40, Mem: 200},
		PrefetchDepth: 0,
	}
}

func TestNewHierarchyValidation(t *testing.T) {
	bad := smallConfig()
	bad.LLC.Size = 7
	if _, err := NewHierarchy(bad); err == nil {
		t.Fatal("invalid LLC config should fail")
	}
	if _, err := NewHierarchy(smallConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	for _, cfg := range []HierarchyConfig{DefaultConfig(), ServerConfig()} {
		if _, err := NewHierarchy(cfg); err != nil {
			t.Errorf("config %v invalid: %v", cfg, err)
		}
	}
}

func TestMissCostCascade(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	c := h.NewCore()
	// Cold access: miss everywhere -> memory latency.
	if got := c.Load(0x100000, 8); got != 200 {
		t.Fatalf("cold load cost = %d, want 200", got)
	}
	// Now resident in L1.
	if got := c.Load(0x100000, 8); got != 4 {
		t.Fatalf("warm L1 load cost = %d, want 4", got)
	}
}

func TestL2AndLLCHitCosts(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	c := h.NewCore()
	target := uint64(0)
	c.Load(target, 1) // install everywhere
	// Evict from L1 only: walk addresses that map to target's L1 set.
	// L1: 4KB/4w = 16 sets; same set every 16 lines (1024 bytes).
	for i := uint64(1); i <= 8; i++ {
		c.Load(target+i*1024, 1)
	}
	got := c.Load(target, 1)
	if got != 12 && got != 40 {
		t.Fatalf("after L1 eviction, cost = %d, want L2 (12) or LLC (40)", got)
	}
}

func TestStoreCountsSeparately(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	c := h.NewCore()
	c.Store(0x2000, 8)
	c.Load(0x2000, 8)
	st := c.Stats()
	if st.Stores != 1 || st.Loads != 1 {
		t.Fatalf("loads=%d stores=%d, want 1/1", st.Loads, st.Stores)
	}
}

func TestMultiLineAccess(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	c := h.NewCore()
	// 16-byte access straddling a line boundary touches 2 lines.
	c.Load(64-8, 16)
	if st := c.Stats(); st.Loads != 2 {
		t.Fatalf("straddling load touched %d lines, want 2", st.Loads)
	}
	// Large access: 256 bytes = 4 lines.
	c2 := h.NewCore()
	c2.Load(0, 256)
	if st := c2.Stats(); st.Loads != 4 {
		t.Fatalf("256B load touched %d lines, want 4", st.Loads)
	}
}

func TestZeroSizeAccessTreatedAsOneByte(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	c := h.NewCore()
	c.Load(0x100, 0)
	if st := c.Stats(); st.Loads != 1 {
		t.Fatalf("zero-size load should touch one line, got %d", st.Loads)
	}
}

func TestCyclesAccumulate(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	c := h.NewCore()
	c.Load(0x0, 8)   // 200
	c.Load(0x0, 8)   // 4
	c.Store(0x40, 8) // 200
	if c.Cycles() != 404 {
		t.Fatalf("cycles = %d, want 404", c.Cycles())
	}
}

func TestSequentialBeatsRandomWithPrefetch(t *testing.T) {
	// The central fidelity property for the paper: a sequential scan over a
	// large buffer must be much cheaper than a random scan of the same
	// addresses when the stream prefetcher is on.
	cfg := smallConfig()
	cfg.PrefetchDepth = 4
	n := 4096 // lines; 256KB, same as LLC, far over L1/L2

	seqCycles := func(order []int) uint64 {
		h := MustNewHierarchy(cfg)
		c := h.NewCore()
		for _, i := range order {
			c.Load(uint64(i)*64, 8)
		}
		return c.Cycles()
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	rnd := make([]int, n)
	copy(rnd, seq)
	rand.New(rand.NewSource(3)).Shuffle(n, func(i, j int) { rnd[i], rnd[j] = rnd[j], rnd[i] })

	sc, rc := seqCycles(seq), seqCycles(rnd)
	if sc*2 >= rc {
		t.Fatalf("sequential (%d cycles) should be <half of random (%d cycles)", sc, rc)
	}
}

func TestPrefetchDepthZeroNoAdvantage(t *testing.T) {
	// Without prefetching, cold sequential and cold random scans over a
	// range far exceeding cache capacity cost roughly the same.
	cfg := smallConfig()
	cfg.PrefetchDepth = 0
	n := 8192
	run := func(shuffle bool) uint64 {
		h := MustNewHierarchy(cfg)
		c := h.NewCore()
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		if shuffle {
			rand.New(rand.NewSource(5)).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, i := range order {
			c.Load(uint64(i)*64, 8)
		}
		return c.Cycles()
	}
	s, r := run(false), run(true)
	ratio := float64(s) / float64(r)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("without prefetch seq/random ratio = %.2f, want ~1.0", ratio)
	}
}

func TestSharedLLCVisibleAcrossCores(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	a, b := h.NewCore(), h.NewCore()
	a.Load(0x7000, 8) // installs into shared LLC
	cost := b.Load(0x7000, 8)
	if cost != 40 {
		t.Fatalf("cross-core LLC hit cost = %d, want 40", cost)
	}
}

func TestConcurrentCoreAccessSafe(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		core := h.NewCore()
		wg.Add(1)
		go func(c *Core, seed int64) {
			defer wg.Done()
			defer c.Publish()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				// 8-byte aligned so no access straddles a line.
				c.Load((rng.Uint64()%(1<<22))&^7, 8)
			}
		}(core, int64(g))
	}
	wg.Wait()
	st := h.Stats()
	if st.Loads != 40000 {
		t.Fatalf("aggregate loads = %d, want 40000", st.Loads)
	}
}

func TestCoreReset(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	c := h.NewCore()
	c.Load(0x123, 8)
	c.Reset()
	st := c.Stats()
	if st.Loads != 0 || st.Cycles != 0 || st.L1Misses != 0 {
		t.Fatalf("Reset left stats %+v", st)
	}
}

func TestSystemStatsAggregation(t *testing.T) {
	h := MustNewHierarchy(smallConfig())
	a, b := h.NewCore(), h.NewCore()
	a.Load(0x1000, 8)
	b.Load(0x2000, 8)
	b.Store(0x3000, 8)
	if st := h.Stats(); st != (SystemStats{}) {
		t.Fatalf("nothing published yet, Stats = %+v", st)
	}
	a.Publish()
	b.Publish()
	st := h.Stats()
	if st.Loads != 2 || st.Stores != 1 {
		t.Fatalf("aggregate loads=%d stores=%d, want 2/1", st.Loads, st.Stores)
	}
	if st.LLCMisses != 3 {
		t.Fatalf("LLC misses = %d, want 3 (all cold)", st.LLCMisses)
	}
}

func TestHierarchyString(t *testing.T) {
	h := MustNewHierarchy(DefaultConfig())
	s := h.String()
	if s == "" {
		t.Fatal("String should describe geometry")
	}
}

func TestLatenciesDefaultApplied(t *testing.T) {
	cfg := smallConfig()
	cfg.Lat = Latencies{}
	h := MustNewHierarchy(cfg)
	c := h.NewCore()
	if got := c.Load(0x0, 8); got != DefaultLatencies().Mem {
		t.Fatalf("default latency not applied: cold load cost %d", got)
	}
}

// TestLLCLockGroups pins how the shared LLC's sets map to locks: one lock
// per 64 consecutive sets, a single lock for an LLC of 64 sets or fewer,
// and a caller that moves to another group gives up the one it held.
func TestLLCLockGroups(t *testing.T) {
	tiny := smallConfig()
	tiny.LLC.Size = 16 << 10 // 32 sets
	for _, tc := range []struct {
		name        string
		cfg         HierarchyConfig
		sets, locks int
	}{
		{"default", DefaultConfig(), 4096, 64},
		{"server", ServerConfig(), 4096, 64},
		{"small", smallConfig(), 512, 8},
		{"tiny", tiny, 32, 1},
	} {
		h := MustNewHierarchy(tc.cfg)
		if h.llc.Sets() != tc.sets || len(h.locks) != tc.locks {
			t.Errorf("%s: %d LLC locks for %d sets, want %d for %d", tc.name, len(h.locks), h.llc.Sets(), tc.locks, tc.sets)
		}
	}

	h := MustNewHierarchy(DefaultConfig())
	sets := uint64(h.llc.Sets())
	addrOfSet := func(set uint64) uint64 { return (5*sets + set) << lineShift }
	first := h.lockLLC(addrOfSet(64), nil)
	if again := h.lockLLC(addrOfSet(65), first); again != first {
		t.Error("sets 64 and 65 map to different locks, want one group")
	}
	next := h.lockLLC(addrOfSet(128), first)
	if next == first {
		t.Error("set 128 maps to set 64's lock, want the next group's")
	}
	if !first.mu.TryLock() {
		t.Error("lockLLC kept the previous group's lock when it moved on")
	} else {
		first.mu.Unlock()
	}
	if next.mu.TryLock() {
		t.Error("lockLLC returned the new group's lock unlocked")
	}
	next.mu.Unlock()
}

// TestReleasedTagsStartCold: a hierarchy built from the tags another one
// released (the arena scrubs them) simulates a seeded access stream exactly
// as one built on fresh memory, and the released one's statistics stay
// readable.
func TestReleasedTagsStartCold(t *testing.T) {
	stream := func(h *Hierarchy) SystemStats {
		rng := rand.New(rand.NewSource(7))
		cores := []*Core{h.NewCore(), h.NewCore()}
		for i := 0; i < 200_000; i++ {
			c := cores[rng.Intn(len(cores))]
			addr := uint64(rng.Intn(64<<20)) &^ 7
			if i%4096 < 512 { // a sequential burst now and then, for the prefetcher
				addr = uint64(i%4096) * LineSize
			}
			if rng.Intn(4) == 0 {
				c.Store(addr, 8)
			} else {
				c.Load(addr, 8)
			}
		}
		for _, c := range cores {
			c.Publish()
		}
		return h.Stats()
	}
	arena.Words.Reset()
	fresh := stream(MustNewHierarchy(DefaultConfig())) // never released: its tags stay out of the arena

	used := MustNewHierarchy(DefaultConfig())
	usedStats := stream(used)
	used.Release()
	used.Release() // a second Release hands nothing over twice
	if got := used.Stats(); got != usedStats {
		t.Fatalf("Stats after Release = %+v, before %+v", got, usedStats)
	}
	cfg := DefaultConfig()
	llcWords, l2Words, l1Words := cfg.LLC.Size/LineSize, cfg.L2.Size/LineSize, cfg.L1.Size/LineSize
	want := map[int]int{llcWords: 1, l2Words: 2, l1Words: 2}
	if held := arena.Words.Held(); !maps.Equal(held, want) {
		t.Fatalf("arena holds %v slabs by length after Release, want %v", held, want)
	}
	if got := stream(MustNewHierarchy(DefaultConfig())); got != fresh {
		t.Fatalf("on released tags: %+v\non fresh tags:    %+v", got, fresh)
	}
	if held := arena.Words.Held(); len(held) != 0 {
		t.Fatalf("a second hierarchy left %v slabs in the arena; it should have taken them all", held)
	}
}
