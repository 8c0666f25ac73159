// Package a seeds barriercheck violations: raw heap word access from
// un-annotated functions, plus the allowlisted shapes that must stay
// silent.
package a

import "hcsgc/internal/heap"

var h *heap.Heap

// badLoad reads heap memory without the barrier and without standing.
func badLoad(addr uint64) uint64 {
	return h.LoadWord(nil, addr) // want `raw heap word access heap\.\(\*Heap\)\.LoadWord`
}

// badStoreInClosure shows the enclosing named declaration is what counts:
// the closure does the access, the (un-annotated) outer function is blamed.
func badStoreInClosure(addr uint64) func() {
	return func() {
		h.StoreWord(nil, addr, 1) // want `raw heap word access heap\.\(\*Heap\)\.StoreWord`
	}
}

// badWordRun reads and writes a run of heap words without standing: the
// run accessors bypass the barrier like the single-word ones.
func badWordRun(addr uint64, buf []uint64) {
	h.LoadWords(nil, addr, buf)  // want `raw heap word access heap\.\(\*Heap\)\.LoadWords`
	h.StoreWords(nil, addr, buf) // want `raw heap word access heap\.\(\*Heap\)\.StoreWords`
}

// goodGCThread is allowlisted as GC-thread code.
//
//hcsgc:gc-thread
func goodGCThread(addr uint64) {
	if !h.CASWord(nil, addr, 0, 1) {
		h.CopyObject(nil, addr, addr+8, 8)
	}
}

// goodBarrierImpl is allowlisted as the barrier implementation; closures
// inherit the annotation.
//
//hcsgc:barrier-impl
func goodBarrierImpl(addr uint64) func() uint64 {
	return func() uint64 { return h.LoadWord(nil, addr) }
}
