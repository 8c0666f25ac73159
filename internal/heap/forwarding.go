package heap

import (
	"sync/atomic"

	"hcsgc/internal/contention"
)

// ForwardTable maps the word offsets of relocated objects on one evacuated
// page to their new addresses. It is a lock-free open-addressing hash table
// sized for the page's live-object count; the CAS that claims a slot is the
// linearization point for the mutator-vs-GC relocation race described in
// §2.2 (RE) of the paper: whoever wins the CAS has relocated the object,
// losers discard their copy and adopt the winner's address.
type ForwardTable struct {
	// slots keeps each key beside its value, so a probe that finds its
	// slot has the answer on the host cache line it just fetched.
	slots []fwdSlot
	mask  uint64
	// cas attributes lost slot-claim races to the contention plane (nil
	// without one). Completed inserts are counted by the callers, who
	// tally them privately and fold them in (Heap.CountForwardOps): one
	// shared counter bumped per relocated object is a line every
	// relocating thread fights over.
	cas *contention.OpSite
}

type fwdSlot struct {
	key atomic.Uint64 // offset+1; 0 = empty
	val atomic.Uint64 // new address; 0 = claim in progress
}

// NewForwardTable builds a table with capacity for at least n entries.
// The table never resizes; callers size it from the page's live-object
// count which is exact after marking. Its slots come from the arena when it
// has that capacity.
func NewForwardTable(n int) *ForwardTable {
	capacity := 16
	for capacity < n*2 {
		capacity *= 2
	}
	return &ForwardTable{
		slots: slotSlabs.Get(capacity),
		mask:  uint64(capacity - 1),
	}
}

// release hands the table's slots to the arena; the table is unusable
// afterwards. Which slots were claimed is not recorded, so all are scrubbed.
func (t *ForwardTable) release() {
	slotSlabs.Put(t.slots, len(t.slots))
	t.slots = nil
}

// hashOffset mixes a word offset into a probe start index.
func hashOffset(off uint64) uint64 {
	off ^= off >> 16
	off *= 0x9e3779b97f4a7c15
	return off ^ off>>32
}

// Insert records that the object at word offset off now lives at newAddr.
// It returns the address that ends up in the table and whether this caller
// won the race (won=false means another thread already inserted; the
// returned address is theirs and the caller must discard its copy). Won or
// lost, it is one completed operation of the heap.forwardTable site, which
// the caller accounts for.
func (t *ForwardTable) Insert(off uint64, newAddr uint64) (addr uint64, won bool) {
	key := off + 1
	i := hashOffset(off) & t.mask
	for {
		sl := &t.slots[i]
		k := sl.key.Load()
		if k == key {
			return sl.waitVal(), false
		}
		if k == 0 {
			if sl.key.CompareAndSwap(0, key) {
				sl.val.Store(newAddr)
				return newAddr, true
			}
			t.cas.Retry()
			continue // re-examine the slot we lost
		}
		i = (i + 1) & t.mask
	}
}

// Lookup returns the forwarded address for off, or 0 if the object has not
// been relocated (yet). Remap fast path: alloc-free.
//
//hcsgc:alloc-free
func (t *ForwardTable) Lookup(off uint64) uint64 {
	key := off + 1
	i := hashOffset(off) & t.mask
	for {
		sl := &t.slots[i]
		k := sl.key.Load()
		if k == 0 {
			return 0
		}
		if k == key {
			return sl.waitVal()
		}
		i = (i + 1) & t.mask
	}
}

// waitVal spins until the slot's claimant has published its value. The
// publish follows the claim immediately, so the spin is bounded by one
// goroutine preemption in practice.
func (sl *fwdSlot) waitVal() uint64 {
	for {
		if v := sl.val.Load(); v != 0 {
			return v
		}
	}
}

// ForEach calls fn for every inserted (offset, forwarded address) pair, in
// table order. Entries whose value is still being published (claim won,
// value store pending) are reported with addr 0; under STW — the only place
// the verifier walks tables — no claim can be in flight, so a zero there is
// itself an anomaly worth reporting.
func (t *ForwardTable) ForEach(fn func(off, addr uint64)) {
	for i := range t.slots {
		k := t.slots[i].key.Load()
		if k == 0 {
			continue
		}
		fn(k-1, t.slots[i].val.Load())
	}
}

// Len counts the inserted entries by scanning the table.
func (t *ForwardTable) Len() int {
	n := 0
	t.ForEach(func(_, _ uint64) { n++ })
	return n
}

// Cap returns the table's slot capacity.
func (t *ForwardTable) Cap() int { return len(t.slots) }
