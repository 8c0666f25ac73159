package kvstore

import (
	"testing"

	"hcsgc"
	"hcsgc/internal/simmem"
)

// TestStoreAccessCountsPinned pins what a Store asks of the memory model:
// one mutator on the default hierarchy, a heap no GC cycle needs, and a
// fixed seeded mix of Set, Get, Scan and Delete over 8..56-word values plus
// one 100-word value. The core's counters and cycles (which also fix the
// order of the accesses) and the Get sums are literals, so a host-side
// rewrite of the value loops must leave every one of them unchanged.
func TestStoreAccessCountsPinned(t *testing.T) {
	cfg := simmem.DefaultConfig()
	rt := hcsgc.MustNewRuntime(hcsgc.Options{
		HeapMaxBytes:   256 << 20,
		TriggerPercent: 101,
		MemConfig:      &cfg,
	})
	defer rt.Close()
	m := rt.NewMutator(RootSlots)
	defer m.Close()
	s := New(m, RegisterTypes(rt.Types), 256)

	const keys, ops, bigWords = 300, 4000, 100
	const bigKey = keys + 1
	version := map[uint64]uint64{}
	words := map[uint64]int{}
	var getSum, scanSum uint64
	var hits int
	get := func(k uint64) {
		sum, hit := s.Get(k)
		if _, live := version[k]; hit != live {
			t.Fatalf("Get(%d) hit = %v, want %v", k, hit, live)
		}
		if hit {
			if want := ValueSum(k, version[k], words[k]); sum != want {
				t.Fatalf("Get(%d) = %d, want %d", k, sum, want)
			}
			getSum += sum
			hits++
		}
	}
	set := func(k uint64, n int) {
		version[k] = s.Set(k, n)
		words[k] = n
	}

	set(bigKey, bigWords)
	x := uint64(0x5eed)
	for i := 0; i < ops; i++ {
		x = mix(x + uint64(i))
		k := x % keys
		switch u := (x >> 32) % 100; {
		case u < 40:
			set(k, 8+int(x>>16)%49)
		case u < 85:
			get(k)
		case u < 95:
			sum, _ := s.Scan(int(k), 16)
			scanSum += sum
		default:
			if s.Delete(k) {
				delete(version, k)
			}
		}
		if i == ops/2 {
			get(bigKey)
		}
	}
	get(bigKey)

	if n := rt.Collector.Cycles(); n != 0 {
		t.Fatalf("%d GC cycles ran; the pin assumes none", n)
	}
	if hits != 1320 || getSum != 16433363352207669 || scanSum != 1892752324133239 {
		t.Errorf("Get hits/sum, Scan sum = %d, %d, %d; want 1320, 16433363352207669, 1892752324133239", hits, getSum, scanSum)
	}
	want := simmem.CoreStats{Loads: 81699, Stores: 58222, L1Misses: 18603, L2Misses: 42, Cycles: 714324,
		PrefIssued: 35144, L2Prefills: 6947}
	if got := m.Core().Stats(); got != want {
		t.Errorf("core stats = %+v,\nwant %+v", got, want)
	}
}
