package simmem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCacheValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     CacheConfig
		wantErr bool
	}{
		{"valid 32k 8w", CacheConfig{Name: "a", Size: 32 << 10, Ways: 8}, false},
		{"valid 4m 16w", CacheConfig{Name: "b", Size: 4 << 20, Ways: 16}, false},
		{"zero size", CacheConfig{Name: "c", Size: 0, Ways: 8}, true},
		{"zero ways", CacheConfig{Name: "d", Size: 1024, Ways: 0}, true},
		{"negative ways", CacheConfig{Name: "e", Size: 1024, Ways: -1}, true},
		{"not multiple of ways*line", CacheConfig{Name: "f", Size: 100, Ways: 1}, true},
		{"non power of two sets", CacheConfig{Name: "g", Size: 3 * 64 * 2, Ways: 2}, true},
		{"direct mapped", CacheConfig{Name: "h", Size: 64 * 16, Ways: 1}, false},
		{"fully assoc single set", CacheConfig{Name: "i", Size: 64 * 8, Ways: 8}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCache(tc.cfg)
			if (err != nil) != tc.wantErr {
				t.Fatalf("NewCache(%+v) err=%v, wantErr=%v", tc.cfg, err, tc.wantErr)
			}
		})
	}
}

func TestMustNewCachePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewCache on invalid config did not panic")
		}
	}()
	MustNewCache(CacheConfig{Size: -1, Ways: 1})
}

func TestCacheGeometry(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "t", Size: 32 << 10, Ways: 8})
	if got := c.SizeBytes(); got != 32<<10 {
		t.Errorf("SizeBytes = %d, want %d", got, 32<<10)
	}
	if got := c.Sets(); got != 64 {
		t.Errorf("Sets = %d, want 64", got)
	}
	if got := c.Ways(); got != 8 {
		t.Errorf("Ways = %d, want 8", got)
	}
	if got := c.Name(); got != "t" {
		t.Errorf("Name = %q, want t", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "t", Size: 64 * 8, Ways: 2})
	if c.Access(0x1000) {
		t.Fatal("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x1000 + 63) {
		t.Fatal("same-line access should hit")
	}
	if c.Access(0x1000 + 64) {
		t.Fatal("next-line access should miss")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestAddressZeroIsCacheable(t *testing.T) {
	// Line tags are offset so that address 0 does not alias the invalid tag.
	c := MustNewCache(CacheConfig{Name: "t", Size: 64 * 8, Ways: 2})
	if c.Access(0) {
		t.Fatal("first access to address 0 should miss")
	}
	if !c.Access(0) {
		t.Fatal("second access to address 0 should hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construction: 2-way, 2 sets. Lines with the same parity of
	// line index map to the same set.
	c := MustNewCache(CacheConfig{Name: "t", Size: 64 * 4, Ways: 2})
	set0 := func(i uint64) uint64 { return i * 2 * 64 } // even line indices -> set depends on mask
	a, b, d := set0(0), set0(1), set0(2)
	c.Access(a) // miss, install
	c.Access(b) // miss, install
	c.Access(a) // hit, refresh a; b is now LRU
	c.Access(d) // miss, evicts b
	if !c.Contains(a) {
		t.Error("a should have survived (recently used)")
	}
	if c.Contains(b) {
		t.Error("b should have been evicted (LRU)")
	}
	if !c.Contains(d) {
		t.Error("d should be present")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "t", Size: 64 * 4, Ways: 2})
	c.Access(0x0)
	h, m := c.Hits(), c.Misses()
	for i := 0; i < 10; i++ {
		c.Contains(0x0)
		c.Contains(0xdead000)
	}
	if c.Hits() != h || c.Misses() != m {
		t.Fatal("Contains must not change statistics")
	}
}

func TestPrefetchInstallsWithoutDemandStats(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "t", Size: 64 * 8, Ways: 2})
	if !c.Prefetch(0x4000) {
		t.Fatal("prefetch of absent line should install")
	}
	if c.Prefetch(0x4000) {
		t.Fatal("prefetch of present line should not reinstall")
	}
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("prefetch must not count demand hits/misses, got %d/%d", c.Hits(), c.Misses())
	}
	if c.Prefills() != 1 {
		t.Fatalf("Prefills = %d, want 1", c.Prefills())
	}
	if !c.Access(0x4000) {
		t.Fatal("demand access after prefetch should hit")
	}
}

func TestReset(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "t", Size: 64 * 8, Ways: 2})
	for i := uint64(0); i < 32; i++ {
		c.Access(i * 64)
	}
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 || c.Prefills() != 0 {
		t.Fatal("Reset must clear statistics")
	}
	if c.Contains(0) {
		t.Fatal("Reset must clear contents")
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set smaller than capacity must be fully resident after one
	// pass, regardless of access order.
	c := MustNewCache(CacheConfig{Name: "t", Size: 8 << 10, Ways: 8}) // 128 lines
	addrs := make([]uint64, 100)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	for _, a := range addrs {
		c.Access(a)
	}
	for _, a := range addrs {
		if !c.Access(a) {
			t.Fatalf("address %#x should hit after warm-up", a)
		}
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// A cyclic working set larger than one set's ways with LRU thrashes:
	// every access misses.
	c := MustNewCache(CacheConfig{Name: "t", Size: 64 * 2, Ways: 2}) // 1 set, 2 ways
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 3; i++ {
			c.Access(i * 64)
		}
	}
	if c.Hits() != 0 {
		t.Fatalf("cyclic over-capacity LRU access should never hit, got %d hits", c.Hits())
	}
}

func TestPropertyAccessTwiceAlwaysHits(t *testing.T) {
	// Property: for any address, accessing it twice in a row hits the
	// second time (no self-eviction).
	c := MustNewCache(CacheConfig{Name: "t", Size: 32 << 10, Ways: 8})
	f := func(addr uint64) bool {
		c.Access(addr)
		return c.Access(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHitsPlusMissesEqualsAccesses(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "t", Size: 4 << 10, Ways: 4})
	rng := rand.New(rand.NewSource(42))
	n := uint64(10000)
	for i := uint64(0); i < n; i++ {
		c.Access(rng.Uint64() % (1 << 20))
	}
	if c.Hits()+c.Misses() != n {
		t.Fatalf("hits+misses = %d, want %d", c.Hits()+c.Misses(), n)
	}
}

func TestPropertyOccupancyNeverExceedsCapacity(t *testing.T) {
	c := MustNewCache(CacheConfig{Name: "t", Size: 64 * 16, Ways: 4})
	rng := rand.New(rand.NewSource(7))
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		a := (rng.Uint64() % (1 << 16)) &^ 63
		c.Access(a)
		seen[a] = true
	}
	resident := 0
	for a := range seen {
		if c.Contains(a) {
			resident++
		}
	}
	if resident > 16 {
		t.Fatalf("resident lines %d exceed capacity 16", resident)
	}
}
