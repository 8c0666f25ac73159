package simmem

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
	// The tracker table, one slot per stream. Every demand miss compares
	// itself against all of lastLine and, to have an eviction victim ready,
	// reads all of lastUse; those two are dense arrays of their own so the
	// scan stays within four host cache lines. streams holds the rest and
	// is read only for a slot the miss lands near.
	lastLine [maxStreams]int64  // line of the stream's latest miss
	lastUse  [maxStreams]uint64 // clock of that miss; 0 = slot free
	streams  [maxStreams]stream
	depth    int // lines prefetched ahead once a stream is confirmed
	clock    uint64
	issued   uint64 // prefetch requests issued; the owning Core publishes it
	// buf is the reused OnMiss return buffer: OnMiss runs on every L1
	// demand miss, so allocating the target slice per miss would put a
	// Go allocation on the simulator's hottest path. The returned slice
	// aliases buf and is only valid until the next OnMiss call.
	buf []uint64
}

// stream is the stride state of one tracked miss stream. A stride is
// only ever learnt inside the discovery window, so |stride| <= streamWindow.
type stream struct {
	stride int64
	confid int
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
	return &Prefetcher{depth: depth, buf: make([]uint64, depth)}
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

	// Find a stream whose next expected line matches, or whose last line is
	// within the discovery window (new stride discovery); the first slot in
	// table order wins either way. The same pass picks the slot a new
	// stream would claim: the first free one, else the least recently used
	// (a free slot's lastUse of 0 is below every live one, and live ones
	// are distinct).
	best, victim, victimUse := -1, 0, ^uint64(0)
	for i := range p.lastLine {
		delta := ln - p.lastLine[i]
		use := p.lastUse[i]
		// |delta| > streamWindow as one unsigned compare.
		if use == 0 || uint64(delta+streamWindow) > 2*streamWindow {
			if use < victimUse {
				victim, victimUse = i, use
			}
			continue
		}
		if delta == 0 {
			// Same line missing again (conflict churn); just refresh.
			p.lastUse[i] = p.clock
			return nil
		}
		if s := &p.streams[i]; s.confid >= confirmThreshold && delta == s.stride {
			best = i
			break
		}
		if best == -1 {
			best = i
		}
	}

	if best == -1 {
		p.lastLine[victim], p.lastUse[victim] = ln, p.clock
		p.streams[victim] = stream{stride: 1}
		return nil
	}

	s := &p.streams[best]
	if delta := ln - p.lastLine[best]; delta == s.stride {
		s.confid++
	} else {
		s.stride = delta
		s.confid = 1
	}
	p.lastLine[best], p.lastUse[best] = ln, p.clock

	if s.confid < confirmThreshold {
		return nil
	}
	n := 0
	next := ln
	for i := 0; i < p.depth; i++ {
		next += s.stride
		if next <= 0 {
			break
		}
		p.buf[n] = uint64(next) << lineShift
		n++
	}
	p.issued += uint64(n)
	return p.buf[:n]
}

// Issued returns the number of prefetch requests issued.
func (p *Prefetcher) Issued() uint64 { return p.issued }

// Reset clears tracker state and statistics.
func (p *Prefetcher) Reset() {
	p.lastLine, p.lastUse, p.streams = [maxStreams]int64{}, [maxStreams]uint64{}, [maxStreams]stream{}
	p.clock = 0
	p.issued = 0
}
