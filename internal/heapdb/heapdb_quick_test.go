package heapdb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hcsgc/internal/core"
	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
)

// TestPropertyTreeInvariants checks structural invariants after random
// insert sequences: node key ordering, max-key parent/child agreement, and
// count bounds.
func TestPropertyTreeInvariants(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		n := int(n16%1500) + 1
		h := heap.New(heap.Config{MaxBytes: 64 << 20}, nil)
		reg := objmodel.NewRegistry()
		c := core.MustNew(h, reg, core.Config{})
		types := RegisterTypes(reg)
		m := c.NewMutator(RootSlots)
		defer m.Close()
		db := New(m, types, 0)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			db.Put(m, uint64(rng.Intn(n))+1, rng.Uint64()>>1)
		}
		return checkInvariants(t, db, m, db.root(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants validates one subtree, returning its max key through
// recursion checks.
func checkInvariants(t *testing.T, db *DB, m *core.Mutator, n heap.Ref) bool {
	c := count(m, n)
	if c < 0 || c > maxKeys {
		t.Logf("count %d out of range", c)
		return false
	}
	// Keys strictly ascending.
	for i := 1; i < c; i++ {
		if nkey(m, n, i-1) >= nkey(m, n, i) {
			t.Logf("keys not ascending at %d", i)
			return false
		}
	}
	if isLeaf(m, n) {
		// Leaf children are rows whose key matches the node key.
		for i := 0; i < c; i++ {
			row := child(m, n, i)
			if m.LoadField(row, rKey) != nkey(m, n, i) {
				t.Logf("row key mismatch at %d", i)
				return false
			}
		}
		return true
	}
	for i := 0; i < c; i++ {
		sub := child(m, n, i)
		// The subtree's max equals the separator key.
		sc := count(m, sub)
		if sc == 0 {
			t.Log("empty internal child")
			return false
		}
		if nkey(m, sub, sc-1) != nkey(m, n, i) {
			t.Logf("max-key invariant broken at child %d", i)
			return false
		}
		if !checkInvariants(t, db, m, sub) {
			return false
		}
	}
	return true
}

// TestPropertyScanIsSorted: scans always yield strictly ascending keys.
func TestPropertyScanIsSorted(t *testing.T) {
	f := func(seed int64) bool {
		h := heap.New(heap.Config{MaxBytes: 64 << 20}, nil)
		reg := objmodel.NewRegistry()
		c := core.MustNew(h, reg, core.Config{})
		types := RegisterTypes(reg)
		m := c.NewMutator(RootSlots)
		defer m.Close()
		db := New(m, types, 0)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 800; i++ {
			db.Put(m, uint64(rng.Intn(2000)), rng.Uint64()>>1)
		}
		prev := int64(-1)
		ok := true
		db.Scan(m, 0, 10000, func(k, v uint64) {
			if int64(k) <= prev {
				ok = false
			}
			prev = int64(k)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDBUnderEveryTable2Config runs the same insert/lookup program under
// all 19 evaluation configurations; results must be identical. It runs them
// twice in one process, the second pass in reverse order, each run
// releasing its heap to the process-wide arena as Runtime.Close does: a
// run built on pages, bitmaps and forwarding tables another configuration
// left behind must compute what a run on fresh memory computes.
func TestDBUnderEveryTable2Config(t *testing.T) {
	knobsFor := func(config int) core.Knobs {
		k := core.Knobs{}
		if config >= 5 {
			k.Hotness = true
		}
		if config >= 11 {
			k.ColdPage = true
		}
		switch config {
		case 6, 9, 12, 15:
			k.ColdConfidence = 0.5
		case 7, 10, 13, 16:
			k.ColdConfidence = 1.0
		}
		switch config {
		case 3, 4, 17, 18:
			k.RelocateAllSmallPages = true
		}
		switch config {
		case 2, 4, 8, 9, 10, 14, 15, 16, 18:
			k.LazyRelocate = true
		}
		return k
	}
	var want uint64
	for run := 0; run < 2*19; run++ {
		config := run
		if run >= 19 {
			config = 2*19 - 1 - run
		}
		h := heap.New(heap.Config{MaxBytes: 64 << 20}, nil)
		reg := objmodel.NewRegistry()
		c := core.MustNew(h, reg, core.Config{Knobs: knobsFor(config)})
		types := RegisterTypes(reg)
		m := c.NewMutator(RootSlots)
		db := New(m, types, 0)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 3000; i++ {
			db.Put(m, uint64(rng.Intn(4000))+1, rng.Uint64()>>1)
			if i%500 == 0 {
				m.RequestGC()
			}
		}
		var sum uint64
		db.Scan(m, 0, 10000, func(k, v uint64) { sum += k ^ v })
		m.Close()
		if !c.Stop() {
			t.Fatalf("run %d: collector not quiet with its only mutator closed", run)
		}
		h.Release()
		if run == 0 {
			want = sum
		} else if sum != want {
			t.Fatalf("run %d, config %d: checksum %d != baseline %d", run, config, sum, want)
		}
	}
}
