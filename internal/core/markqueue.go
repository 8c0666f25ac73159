package core

import (
	"sync"

	"hcsgc/internal/contention"
	"hcsgc/internal/heap"
)

// markChunk is the capacity of a mark buffer, the unit in which gray
// objects travel between mutators, the pool and the workers.
const markChunk = 256

// markPool is the shared gray-object pool for parallel marking. Workers
// keep thread-local stacks and spill/steal chunks here; mutators flush
// their thread-local mark buffers here (paper §2, footnote 2). The pool
// also provides the quiescence signal used to attempt mark termination at
// STW2.
//
// Gray objects travel in buffers of markChunk capacity that are never
// copied: whoever fills one puts it, the worker that gets it consumes it in
// place and recycles it, and the next filler takes it from the free list.
// A mark phase therefore allocates only when more buffers are in flight at
// once than ever before.
type markPool struct {
	// mu stays a plain sync.Mutex (the condition variable binds to it);
	// the pool's serialization is attributed through the ops site
	// instead: one Op per transfer, one Retry per get that had to park.
	mu     sync.Mutex
	cond   *sync.Cond
	ops    *contention.OpSite
	chunks [][]uint64
	// free holds empty buffers; heap supplies (and at Release reclaims)
	// new ones. A pool without a heap (unit tests) makes its own.
	free [][]uint64
	heap *heap.Heap
	// active counts workers currently holding local work; waiting counts
	// workers parked in get.
	active int
	// terminated releases all waiting workers at mark end.
	terminated bool
}

func newMarkPool() *markPool {
	p := &markPool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// buffer returns an empty mark buffer.
func (p *markPool) buffer() []uint64 {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		buf := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	if p.heap == nil {
		return make([]uint64, 0, markChunk)
	}
	return p.heap.Scratch(markChunk)[:0]
}

// recycle takes back a buffer its consumer has emptied.
func (p *markPool) recycle(buf []uint64) {
	if cap(buf) != markChunk {
		return // not one of ours
	}
	p.mu.Lock()
	p.free = append(p.free, buf[:0])
	p.mu.Unlock()
}

// push appends a gray object to buf (nil: a fresh buffer) and hands the
// buffer to the pool when that fills it. It returns the buffer to push into
// next, nil after a hand-over.
func (p *markPool) push(buf []uint64, addr uint64) []uint64 {
	if buf == nil {
		buf = p.buffer()
	}
	buf = append(buf, addr)
	if len(buf) == markChunk {
		p.put(buf)
		return nil
	}
	return buf
}

// put contributes a chunk of gray object addresses and wakes a worker.
func (p *markPool) put(chunk []uint64) {
	if len(chunk) == 0 {
		return
	}
	p.ops.Op()
	p.mu.Lock()
	p.chunks = append(p.chunks, chunk)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// get blocks until a chunk is available or marking terminates (nil).
// The caller transitions from active to waiting while blocked.
func (p *markPool) get() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	p.cond.Broadcast() // collector may be watching for quiescence
	if len(p.chunks) == 0 && !p.terminated {
		p.ops.Retry() // out of work: this get parks until a put or mark end
	}
	for len(p.chunks) == 0 && !p.terminated {
		p.cond.Wait()
	}
	if p.terminated && len(p.chunks) == 0 {
		return nil
	}
	chunk := p.chunks[len(p.chunks)-1]
	p.chunks = p.chunks[:len(p.chunks)-1]
	p.active++
	p.ops.Op()
	return chunk
}

// setActive registers n initially active workers.
func (p *markPool) setActive(n int) {
	p.mu.Lock()
	p.active = n
	p.terminated = false
	p.chunks = p.chunks[:0]
	p.mu.Unlock()
}

// quiescent reports whether no worker holds work and the pool is empty,
// i.e. the only possible remaining gray objects sit in unflushed mutator
// buffers. Used by the collector to decide when to attempt STW2.
func (p *markPool) quiescent() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active == 0 && len(p.chunks) == 0
}

// waitQuiescent blocks until quiescent.
func (p *markPool) waitQuiescent() {
	p.mu.Lock()
	for !(p.active == 0 && len(p.chunks) == 0) {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// terminate releases all waiting workers; get returns nil from now on.
func (p *markPool) terminate() {
	p.mu.Lock()
	p.terminated = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
