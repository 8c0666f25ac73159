// Package heap is a fixture stub: just enough surface for the analyzers
// to resolve hcsgc/internal/heap symbols hermetically.
package heap

type Ref uint64

type Heap struct{}

func (h *Heap) LoadWord(core any, addr uint64) uint64          { return 0 }
func (h *Heap) StoreWord(core any, addr uint64, v uint64)      {}
func (h *Heap) LoadWords(core any, addr uint64, dst []uint64)  {}
func (h *Heap) StoreWords(core any, addr uint64, src []uint64) {}
func (h *Heap) CASWord(core any, addr, old, new uint64) bool   { return false }
func (h *Heap) CopyObject(core any, src, dst, size uint64)     {}
