package simmem

import "math/bits"

// Prefetcher models a hardware stream prefetcher of the kind found in the
// paper's Intel and AMD test machines: it watches the demand-miss stream,
// detects constant-stride streams (including the common +1-line stream),
// and on confirmation issues prefetches for the next lines of the stream.
//
// The paper's core claim is that laying objects out in mutator access order
// is "prefetching friendly" (§1, §3): sequential layouts turn into +1-line
// streams that this model detects, while pointer-chasing over a scattered
// layout defeats it. A faithful stream detector is therefore load-bearing
// for reproducing the evaluation's shape.
type Prefetcher struct {
	tab streamTable
	// kernel scans tab with the AVX-512 stream-table kernel rather than the
	// Go loop.
	kernel bool
	depth  int // lines prefetched ahead once a stream is confirmed
	clock  uint64
	issued uint64 // prefetch requests issued; the owning Core publishes it
	// buf is the reused OnMiss return buffer: OnMiss runs on every L1
	// demand miss, so allocating the target slice per miss would put a
	// Go allocation on the simulator's hottest path. The returned slice
	// aliases buf and is only valid until the next OnMiss call.
	buf []uint64
}

// streamTable is the tracker table, one slot per stream, as one dense
// array per field: every demand miss compares itself against every slot's
// line, stride and confidence, and reads every lastUse to have an eviction
// victim ready. A stride is only ever learnt inside the discovery window,
// so |stride| <= streamWindow; confid stops counting at confirmThreshold,
// the only value it is compared with.
type streamTable struct {
	lastLine [maxStreams]int64  // line of the stream's latest miss
	lastUse  [maxStreams]uint64 // clock of that miss; 0 = slot free
	stride   [maxStreams]int64
	confid   [maxStreams]int32
}

// maxStreams bounds the tracker table like real hardware (Intel tracks
// 16-32 streams per core).
const maxStreams = 16

// confirmThreshold is how many consecutive same-stride misses confirm a
// stream.
const confirmThreshold = 2

// streamWindow is the discovery window in lines: hardware streamers track
// streams within a 4KB page (±64 lines); allocation noise between stream
// elements is common, so the window must span it.
const streamWindow = 64

// NewPrefetcher returns a stream prefetcher that runs depth lines ahead.
// depth <= 0 disables prefetching.
func NewPrefetcher(depth int) *Prefetcher {
	if depth < 0 {
		depth = 0
	}
	return &Prefetcher{kernel: len(kernelsMissing) == 0, depth: depth, buf: make([]uint64, depth)}
}

// Enabled reports whether the prefetcher issues any prefetches.
func (p *Prefetcher) Enabled() bool { return p != nil && p.depth > 0 }

// OnMiss informs the prefetcher of a demand miss at addr and returns the
// line-aligned addresses that should be prefetched as a consequence
// (possibly none). The caller installs them into its caches. The returned
// slice aliases an internal buffer and is invalidated by the next OnMiss.
//
//hcsgc:alloc-free
func (p *Prefetcher) OnMiss(addr uint64) []uint64 {
	if !p.Enabled() {
		return nil
	}
	p.clock++
	ln := int64(addr >> lineShift)
	t := &p.tab

	var i int
	var act action
	if p.kernel {
		i, act = t.matchVec(ln)
	} else {
		i, act = t.match(ln)
	}
	switch act {
	case refresh:
		t.lastUse[i] = p.clock
		return nil
	case claim:
		t.lastLine[i], t.lastUse[i], t.stride[i], t.confid[i] = ln, p.clock, 1, 0
		return nil
	}

	if delta := ln - t.lastLine[i]; delta == t.stride[i] {
		t.confid[i] = min(t.confid[i]+1, confirmThreshold)
	} else {
		t.stride[i] = delta
		t.confid[i] = 1
	}
	t.lastLine[i], t.lastUse[i] = ln, p.clock

	if t.confid[i] < confirmThreshold {
		return nil
	}
	stride := t.stride[i]
	n := 0
	next := ln
	for range p.depth {
		next += stride
		if next <= 0 {
			break
		}
		p.buf[n] = uint64(next) << lineShift
		n++
	}
	p.issued += uint64(n)
	return p.buf[:n]
}

// action is what a demand miss does to the stream table.
type action uint8

const (
	extend  action = iota // the miss continues the stream in its slot
	refresh               // the slot's line missed again (conflict churn)
	claim                 // a new stream takes the slot
)

// match finds the slot a miss at line ln acts on: a stream whose next
// expected line it is, or whose last line is within the discovery window
// (new stride discovery), the first slot in table order winning either
// way. Without one, it picks the slot a new stream claims: the first free
// one, else the least recently used (a free slot's lastUse of 0 is below
// every live one, and live ones are distinct). It is the Go loop the
// kernel (matchVec) replaces, and its reference.
func (t *streamTable) match(ln int64) (int, action) {
	best, victim, victimUse := -1, 0, ^uint64(0)
	for i := range t.lastLine {
		delta := ln - t.lastLine[i]
		use := t.lastUse[i]
		// |delta| > streamWindow as one unsigned compare.
		if use == 0 || uint64(delta+streamWindow) > 2*streamWindow {
			if use < victimUse {
				victim, victimUse = i, use
			}
			continue
		}
		if delta == 0 {
			return i, refresh
		}
		if t.confid[i] >= confirmThreshold && delta == t.stride[i] {
			return i, extend
		}
		if best == -1 {
			best = i
		}
	}
	if best == -1 {
		return victim, claim
	}
	return best, extend
}

// matchVec is match on the stream-table kernel: the kernel classifies
// every slot at once, and the first slot in table order that is on ln or
// continues a confirmed stream decides, as in the loop.
func (t *streamTable) matchVec(ln int64) (int, action) {
	near, same, conf, victim := scanStreams(t, ln)
	if near == 0 {
		return victim, claim
	}
	if hit := same | conf; hit != 0 {
		i := bits.TrailingZeros32(hit)
		if same&(1<<i) != 0 {
			return i, refresh
		}
		return i, extend
	}
	return bits.TrailingZeros32(near), extend
}

// Issued returns the number of prefetch requests issued.
func (p *Prefetcher) Issued() uint64 { return p.issued }

// Reset clears tracker state and statistics.
func (p *Prefetcher) Reset() {
	p.tab = streamTable{}
	p.clock = 0
	p.issued = 0
}
