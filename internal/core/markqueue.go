package core

import (
	"sync"

	"hcsgc/internal/contention"
)

// markChunk is the capacity of a mark buffer, the unit in which gray
// objects travel between mutators, the pool and the workers.
const markChunk = 256

// markBuf is a mark buffer: up to markChunk gray object addresses, w[:n],
// and the link to the buffer beneath it on whichever stack or free list
// holds it.
type markBuf struct {
	n    int
	next *markBuf
	w    [markChunk]uint64
}

func (b *markBuf) push(addr uint64) {
	b.w[b.n] = addr
	b.n++
}

func (b *markBuf) pop() uint64 {
	b.n--
	return b.w[b.n]
}

// spareBufs is the process's free list of mark buffers. A runtime's Close
// hands its collector's buffers here (Collector.Release) and every pool
// takes from it before making one, so the buffers the busiest run needed
// serve every later run in the process; nothing is trimmed.
var spareBufs struct {
	mu   sync.Mutex
	head *markBuf
	n    int
}

// SpareMarkBuffers returns how many mark buffers the process's free list
// holds: the most that runs released so far held at once.
func SpareMarkBuffers() int {
	spareBufs.mu.Lock()
	defer spareBufs.mu.Unlock()
	return spareBufs.n
}

// markPool is the shared gray-object pool for parallel marking. Workers
// keep thread-local stacks and spill/steal chunks here; mutators flush
// their thread-local mark buffers here (paper §2, footnote 2). The pool
// also provides the quiescence signal used to attempt mark termination at
// STW2.
//
// Gray objects travel in mark buffers. A full one is never copied: whoever
// fills it puts it, the worker that gets it consumes it in place and
// recycles it, and the next filler takes it from the free list. A partly
// filled one — a mutator flushes its buffer at every poll during a mark —
// is packed: its entries fill the room left in the top buffer, so a mark
// phase holds about one buffer per markChunk gray objects in flight, not
// one per flush.
type markPool struct {
	// mu stays a plain sync.Mutex (the condition variable binds to it);
	// the pool's serialization is attributed through the ops site
	// instead: one Op per transfer, one Retry per get that had to park.
	mu   sync.Mutex
	cond *sync.Cond
	ops  *contention.OpSite
	// top is the stack of handed-over buffers, linked through next; free
	// holds the pool's empty ones.
	top  *markBuf
	free *markBuf
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

// buffer returns an empty mark buffer: the pool's own, else one from the
// process's free list, else a new one.
func (p *markPool) buffer() *markBuf {
	p.mu.Lock()
	b := p.free
	if b != nil {
		p.free = b.next
	}
	p.mu.Unlock()
	if b == nil {
		spareBufs.mu.Lock()
		if b = spareBufs.head; b != nil {
			spareBufs.head = b.next
			spareBufs.n--
		}
		spareBufs.mu.Unlock()
		if b == nil {
			return new(markBuf)
		}
	}
	b.next = nil
	return b
}

// recycle takes back a buffer (nil: none) its holder has done with.
func (p *markPool) recycle(b *markBuf) {
	if b == nil {
		return
	}
	p.mu.Lock()
	p.recycleLocked(b)
	p.mu.Unlock()
}

func (p *markPool) recycleLocked(b *markBuf) {
	b.n = 0
	b.next = p.free
	p.free = b
}

// push appends a gray object to b (nil: a fresh buffer) and hands the
// buffer to the pool when that fills it. It returns the buffer to push into
// next, nil after a hand-over.
func (p *markPool) push(b *markBuf, addr uint64) *markBuf {
	if b == nil {
		b = p.buffer()
	}
	b.push(addr)
	if b.n == markChunk {
		return p.put(b)
	}
	return b
}

// put hands b's gray objects (b nil or empty: none) to the pool and wakes a
// worker. A full b travels itself. A partial one's entries first fill the
// room in the top buffer, and only what does not fit travels, in b. put
// returns b emptied when none of it travelled, for the caller to fill again
// or recycle, and nil otherwise. Either way every entry is in the pool when
// put returns, and the freshest sits last in the top buffer: entries come
// back LIFO.
func (p *markPool) put(b *markBuf) *markBuf {
	if b == nil || b.n == 0 {
		return b
	}
	p.ops.Op()
	p.mu.Lock()
	if t := p.top; t != nil && b.n < markChunk && t.n < markChunk {
		fit := min(b.n, markChunk-t.n)
		t.n += copy(t.w[t.n:], b.w[:fit])
		b.n = copy(b.w[:], b.w[fit:b.n])
	}
	kept := b
	if b.n > 0 {
		b.next = p.top
		p.top = b
		kept = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	return kept
}

// get blocks until a buffer is available or marking terminates (nil).
// The caller transitions from active to waiting while blocked.
func (p *markPool) get() *markBuf {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	p.cond.Broadcast() // collector may be watching for quiescence
	if p.top == nil && !p.terminated {
		p.ops.Retry() // out of work: this get parks until a put or mark end
	}
	for p.top == nil && !p.terminated {
		p.cond.Wait()
	}
	if p.top == nil {
		return nil // terminated
	}
	b := p.top
	p.top = b.next
	b.next = nil
	p.active++
	p.ops.Op()
	return b
}

// setActive registers n initially active workers. Buffers a cycle that
// ended early left on the stack go back to the free list.
func (p *markPool) setActive(n int) {
	p.mu.Lock()
	p.active = n
	p.terminated = false
	for p.top != nil {
		b := p.top
		p.top = b.next
		p.recycleLocked(b)
	}
	p.mu.Unlock()
}

// release hands every buffer the pool holds to the process's free list.
// Nothing may use the pool afterwards.
func (p *markPool) release() {
	p.setActive(0)
	p.mu.Lock()
	head := p.free
	p.free = nil
	p.mu.Unlock()
	if head == nil {
		return
	}
	n, tail := 1, head
	for ; tail.next != nil; tail = tail.next {
		n++
	}
	spareBufs.mu.Lock()
	tail.next = spareBufs.head
	spareBufs.head = head
	spareBufs.n += n
	spareBufs.mu.Unlock()
}

// quiescent reports whether no worker holds work and the pool is empty,
// i.e. the only possible remaining gray objects sit in unflushed mutator
// buffers. Used by the collector to decide when to attempt STW2.
func (p *markPool) quiescent() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active == 0 && p.top == nil
}

// waitQuiescent blocks until quiescent.
func (p *markPool) waitQuiescent() {
	p.mu.Lock()
	for !(p.active == 0 && p.top == nil) {
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
