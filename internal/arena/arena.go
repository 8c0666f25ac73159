// Package arena is the process-wide recycler of host memory that every
// simulated runtime draws its bulk arrays from: page backings, bitmap
// words, forwarding tables and page tables (internal/heap), and the cache
// model's tag arrays (internal/simmem). A run's Close hands
// what it used back, and the next run in the process is built from it
// instead of from the Go allocator.
package arena

import "sync"

// Slabs is a size-keyed free list of host memory: slices a run has
// finished with, filed under their length, to be handed out again in place
// of a fresh make. Everything in it reads zero — Put scrubs what it takes
// in — because everything it feeds is built on the assumption that fresh
// memory is zero.
//
// It holds only what was handed back: nothing is allocated ahead of need
// and nothing is ever trimmed, so its footprint is bounded by the largest
// simultaneous demand the process has seen per slab length. The lengths
// come from a small fixed set (page classes, their bitmaps, power-of-two
// forwarding tables, the page table of the configured address space, cache
// tag arrays); whatever has a free-form length, i.e. a large
// page, stays out.
//
// A sync.Pool cannot do this job: the Go collector empties it every second
// cycle, which is the one moment a heap that just dropped its pages wants
// them back.
type Slabs[T any] struct {
	mu   sync.Mutex
	free map[int][][]T
}

// Words is the process-wide free list of word slabs, shared by every heap
// and every memory hierarchy in the process. Its feeders (Heap.DropPage,
// Heap.Release, Hierarchy.Release) require that nothing can still
// reach the memory they hand over.
var Words Slabs[uint64]

// Get returns a slab of length n that reads zero: a recycled one when the
// arena has that length, a fresh one otherwise.
func (a *Slabs[T]) Get(n int) []T {
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

// Put takes back a slab nothing references any more. dirty is the caller's
// bound on how much of it was ever written: s[:dirty] is scrubbed, the rest
// is trusted to still read zero.
func (a *Slabs[T]) Put(s []T, dirty int) {
	clear(s[:dirty])
	a.mu.Lock()
	if a.free == nil {
		a.free = make(map[int][][]T)
	}
	a.free[len(s)] = append(a.free[len(s)], s)
	a.mu.Unlock()
}

// Held returns how many slabs of each length the arena holds.
func (a *Slabs[T]) Held() map[int]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]int, len(a.free))
	for n, list := range a.free {
		if len(list) > 0 {
			out[n] = len(list)
		}
	}
	return out
}

// Reset empties the arena, so that a test observes first-use behaviour
// whatever ran before it in the process.
func (a *Slabs[T]) Reset() {
	a.mu.Lock()
	a.free = nil
	a.mu.Unlock()
}
