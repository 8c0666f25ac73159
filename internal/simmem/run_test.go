package simmem

import (
	"math/rand"
	"testing"
)

// TestRunMatchesWordByWord is the differential test for the word-run
// path: twin cores, one driven through LoadRun/StoreRun and the other
// through the per-word Load/Store calls the runs stand for, agree on every
// counter, the cycle total and each call's cost after every call. Each
// core has a hierarchy of its own (one config) because the LLC is shared:
// a twin on the same hierarchy would find the other's lines there. Starts
// are unaligned to the line (and sometimes to the word), lengths run from
// 0 to 130 words, single accesses fall between runs, and the prefetcher
// is on, so runs start on lines that miss at every level.
func TestRunMatchesWordByWord(t *testing.T) {
	for _, cfg := range []HierarchyConfig{func() HierarchyConfig {
		c := smallConfig()
		c.PrefetchDepth = 4
		return c
	}(), DefaultConfig()} {
		runs := MustNewHierarchy(cfg).NewCore()
		words := MustNewHierarchy(cfg).NewCore()
		rng := rand.New(rand.NewSource(3))
		const region = 1 << 20 // above the small LLC: misses reach memory
		for i := 0; i < 20_000; i++ {
			addr := uint64(rng.Intn(region)) &^ 7
			if rng.Intn(50) == 0 {
				addr |= uint64(1 + rng.Intn(7))
			}
			store := rng.Intn(3) == 0
			var got, want uint64
			var what string
			if rng.Intn(4) == 0 {
				what = "single"
				if store {
					got, want = runs.Store(addr, 8), words.Store(addr, 8)
				} else {
					got, want = runs.Load(addr, 8), words.Load(addr, 8)
				}
			} else {
				what = "run"
				n := rng.Intn(131)
				if store {
					got = runs.StoreRun(addr, n)
				} else {
					got = runs.LoadRun(addr, n)
				}
				for j := 0; j < n; j++ {
					if store {
						want += words.Store(addr+uint64(j)*8, 8)
					} else {
						want += words.Load(addr+uint64(j)*8, 8)
					}
				}
			}
			if got != want || runs.Stats() != words.Stats() || runs.Cycles() != words.Cycles() {
				t.Fatalf("%v: call %d (%s at %#x, store %v): cost %d vs %d, stats %+v vs %+v",
					cfg.L1, i, what, addr, store, got, want, runs.Stats(), words.Stats())
			}
		}
		if s := runs.Stats(); s.L2Misses == 0 || s.PrefIssued == 0 {
			t.Errorf("%v: the mix reached no L2 miss or prefetch: %+v", cfg.L1, s)
		}
	}
}
