package heap

import (
	"sync/atomic"

	"hcsgc/internal/arena"
)

// The heap's share of the process-wide arena: page backings and bitmap
// words come from arena.Words, which the memory model's tag arrays share;
// forwarding-table slot arrays and page tables, whose element types are the
// heap's own, have a free list each here. Heap.DropPage and
// Heap.Release feed all three; both require that nothing can still reach
// the memory they hand over.
var (
	slotSlabs  arena.Slabs[fwdSlot]
	tableSlabs arena.Slabs[atomic.Pointer[Page]]
)
