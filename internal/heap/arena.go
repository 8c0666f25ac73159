package heap

import (
	"sync"
	"sync/atomic"
)

// slabs is a size-keyed free list of host memory: slices a heap has
// finished with, filed under their length, to be handed out again in place
// of a fresh make. Everything in it reads zero — put scrubs what it takes
// in — because everything it feeds (page backings, bitmaps, forwarding
// tables) is built on the assumption that fresh memory is zero.
//
// It holds only what was handed back: nothing is allocated ahead of need
// and nothing is ever trimmed, so its footprint is bounded by the largest
// simultaneous demand the process has seen per slab length. The lengths
// come from a small fixed set (page classes, their bitmaps, power-of-two
// forwarding tables, mark buffers, the page table of the configured address
// space); whatever has a free-form length, i.e. a large page, stays out.
type slabs[T any] struct {
	mu   sync.Mutex
	free map[int][][]T
}

// The process-wide arena: one free list of word slabs (page backings,
// bitmap words, mark buffers), one of forwarding-table slot arrays and one
// of page tables. It is shared by every Heap in the process, so that a run
// recycles what the previous one released. A sync.Pool cannot do that: the Go collector
// empties it every second cycle, which is the one moment a heap that just
// dropped its pages wants them back.
//
// Two things feed it, Heap.DropPage and Heap.Release; both require that
// nothing can still reach the memory they hand over.
var (
	wordSlabs  slabs[uint64]
	slotSlabs  slabs[fwdSlot]
	tableSlabs slabs[atomic.Pointer[Page]]
)

// get returns a slab of length n that reads zero: a recycled one when the
// arena has that length, a fresh one otherwise.
func (a *slabs[T]) get(n int) []T {
	a.mu.Lock()
	list := a.free[n]
	if len(list) == 0 {
		a.mu.Unlock()
		return make([]T, n)
	}
	s := list[len(list)-1]
	list[len(list)-1] = nil
	a.free[n] = list[:len(list)-1]
	a.mu.Unlock()
	return s
}

// put takes back a slab nothing references any more. dirty is the caller's
// bound on how much of it was ever written: s[:dirty] is scrubbed, the rest
// is trusted to still read zero.
func (a *slabs[T]) put(s []T, dirty int) {
	clear(s[:dirty])
	a.mu.Lock()
	if a.free == nil {
		a.free = make(map[int][][]T)
	}
	a.free[len(s)] = append(a.free[len(s)], s)
	a.mu.Unlock()
}
