package simmem

import (
	"math/rand"
	"testing"
)

// This file freezes the model simmem implemented before its access path
// was rebuilt for host speed: ticket-LRU sets, a two-pass stream table and
// a counted cycle ledger, and a per-way flag for a line a prefetch
// installed that no demand access has hit yet. It is deliberately the slow, obvious version —
// the oracle TestDifferentialAgainstReference holds the fast one to, access
// by access. It is single-threaded, so the LLC's locks play no part
// (TestLLCDisjointSetsConcurrent covers locking).

type refCache struct {
	ways     int
	setMask  uint64
	tags     []uint64 // 0 = invalid
	lru      []uint64 // per-way ticket of the last touch
	pf       []bool   // per-way: installed by prefetch, not yet demanded
	tick     uint64
	hits     uint64
	misses   uint64
	prefills uint64
	useful   uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	sets := cfg.Size / (cfg.Ways * LineSize)
	return &refCache{
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*cfg.Ways),
		lru:     make([]uint64, sets*cfg.Ways),
		pf:      make([]bool, sets*cfg.Ways),
	}
}

// touch reports whether ln is resident; if not it installs ln into the
// first free way, or else over the way with the oldest ticket, flagged
// when a prefetch installs it. A demand hit on a flagged way counts one
// useful prefetch and clears the flag.
func (c *refCache) touch(ln uint64, prefetch bool) bool {
	base := int((ln-1)&c.setMask) * c.ways
	c.tick++
	victim := base
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == ln {
			c.lru[i] = c.tick
			if c.pf[i] && !prefetch {
				c.pf[i] = false
				c.useful++
			}
			return true
		}
		if c.tags[i] == 0 {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.tags[victim] = ln
	c.lru[victim] = c.tick
	c.pf[victim] = prefetch
	return false
}

func (c *refCache) access(addr uint64) bool {
	hit := c.touch(line(addr), false)
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return hit
}

func (c *refCache) prefetch(addr uint64) {
	if !c.touch(line(addr), true) {
		c.prefills++
	}
}

type refStream struct {
	lastLine int64
	stride   int64
	confid   int
	lastUse  uint64
	valid    bool
}

type refPrefetcher struct {
	streams [maxStreams]refStream
	depth   int
	clock   uint64
	issued  uint64
}

func (p *refPrefetcher) onMiss(addr uint64) []uint64 {
	if p.depth <= 0 {
		return nil
	}
	p.clock++
	ln := int64(addr >> lineShift)
	best := -1
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		delta := ln - s.lastLine
		if delta == 0 {
			s.lastUse = p.clock
			return nil
		}
		if s.confid >= confirmThreshold && delta == s.stride {
			best = i
			break
		}
		if delta >= -64 && delta <= 64 && best == -1 {
			best = i
		}
	}
	if best == -1 {
		// Second pass: first free slot, else the least recently used.
		victim, victimUse := 0, ^uint64(0)
		for i := range p.streams {
			if !p.streams[i].valid {
				victim = i
				break
			}
			if p.streams[i].lastUse < victimUse {
				victim, victimUse = i, p.streams[i].lastUse
			}
		}
		p.streams[victim] = refStream{lastLine: ln, stride: 1, lastUse: p.clock, valid: true}
		return nil
	}
	s := &p.streams[best]
	if delta := ln - s.lastLine; delta == s.stride {
		s.confid++
	} else {
		s.stride = delta
		s.confid = 1
	}
	s.lastLine = ln
	s.lastUse = p.clock
	if s.confid < confirmThreshold {
		return nil
	}
	var targets []uint64
	next := ln
	for i := 0; i < p.depth; i++ {
		next += s.stride
		if next <= 0 {
			break
		}
		targets = append(targets, uint64(next)<<lineShift)
	}
	p.issued += uint64(len(targets))
	return targets
}

type refCore struct {
	l1, l2, llc *refCache
	pf          refPrefetcher
	lat         Latencies
	loads       uint64
	stores      uint64
	cycles      uint64
}

type refHierarchy struct {
	cfg   HierarchyConfig
	llc   *refCache
	cores []*refCore
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{cfg: cfg, llc: newRefCache(cfg.LLC)}
}

func (h *refHierarchy) newCore() *refCore {
	c := &refCore{
		l1: newRefCache(h.cfg.L1), l2: newRefCache(h.cfg.L2), llc: h.llc,
		pf: refPrefetcher{depth: h.cfg.PrefetchDepth}, lat: h.cfg.Lat,
	}
	h.cores = append(h.cores, c)
	return c
}

func (c *refCore) access(addr uint64, size int, store bool) uint64 {
	if size <= 0 {
		size = 1
	}
	var total uint64
	last := (addr + uint64(size) - 1) &^ uint64(LineSize-1)
	for a := addr &^ uint64(LineSize-1); a <= last; a += LineSize {
		total += c.accessLine(a, store)
	}
	c.cycles += total
	return total
}

func (c *refCore) accessLine(addr uint64, store bool) uint64 {
	if store {
		c.stores++
	} else {
		c.loads++
	}
	if c.l1.access(addr) {
		return c.lat.L1
	}
	targets := c.pf.onMiss(addr)
	for _, t := range targets {
		c.l2.prefetch(t)
	}
	for _, t := range targets {
		c.llc.prefetch(t)
	}
	if c.l2.access(addr) {
		return c.lat.L2
	}
	if c.llc.access(addr) {
		return c.lat.LLC
	}
	return c.lat.Mem
}

func (h *refHierarchy) stats() SystemStats {
	out := SystemStats{LLCHits: h.llc.hits}
	for _, c := range h.cores {
		out.CoreStats.Add(CoreStats{
			Loads: c.loads, Stores: c.stores,
			L1Misses: c.l1.misses, L2Misses: c.l2.misses,
			Cycles: c.cycles, PrefIssued: c.pf.issued,
			L2Prefills: c.l2.prefills, PrefUseful: c.l2.useful,
		})
	}
	out.LLCMisses = h.llc.misses
	return out
}

// TestDifferentialAgainstReference drives the model and the frozen
// reference with the same seeded access streams — uniform over working
// sets that sit in L1/L2, in the LLC and in DRAM, strided walks the
// prefetcher confirms, accesses spanning several lines, loads and stores —
// on two cores of one hierarchy, interleaved from this goroutine. Every
// access must cost the same in both, and the final statistics, useful
// prefetches included, must match.
func TestDifferentialAgainstReference(t *testing.T) {
	const steps = 60000
	for _, tc := range []struct {
		name string
		cfg  HierarchyConfig
	}{{"default", DefaultConfig()}, {"server", ServerConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			h, ref := MustNewHierarchy(tc.cfg), newRefHierarchy(tc.cfg)
			cores := [2]*Core{h.NewCore(), h.NewCore()}
			refs := [2]*refCore{ref.newCore(), ref.newCore()}
			rng := rand.New(rand.NewSource(12))
			var walk [2]uint64 // per-core cursor of the strided walks
			n := 0
			for phase := 0; phase < 8; phase++ {
				span := []uint64{64 << 10, 1 << 20, 64 << 20}[phase%3]
				stride := uint64(1+rng.Intn(5)) * LineSize
				for i := 0; i < steps; i++ {
					k := rng.Intn(2)
					var addr uint64
					size := 8
					switch r := rng.Intn(16); {
					case r < 6: // strided walk, forwards on one core, backwards on the other
						if k == 0 {
							walk[k] += stride
						} else {
							walk[k] -= stride
						}
						addr = 1<<32 + uint64(k)<<30 + walk[k]&(64<<20-1)
					case r < 14: // uniform over this phase's working set, shared by both cores
						addr = 1<<31 + uint64(rng.Int63n(int64(span)))&^7
					default: // unaligned and spanning up to five lines
						addr = 1<<31 + uint64(rng.Int63n(int64(span)))
						size = 1 + rng.Intn(256)
					}
					var got, want uint64
					if rng.Intn(4) == 0 {
						got, want = cores[k].Store(addr, size), refs[k].access(addr, size, true)
					} else {
						got, want = cores[k].Load(addr, size), refs[k].access(addr, size, false)
					}
					n++
					if got != want {
						t.Fatalf("access %d (core %d, addr %#x, size %d): cost %d, reference %d", n, k, addr, size, got, want)
					}
				}
				for k := range cores {
					if got, want := cores[k].Cycles(), refs[k].cycles; got != want {
						t.Fatalf("phase %d core %d: Cycles() = %d, reference ledger %d", phase, k, got, want)
					}
				}
			}
			for _, c := range cores {
				c.Publish()
			}
			if got, want := h.Stats(), ref.stats(); got != want {
				t.Fatalf("final stats differ:\n model     %+v\n reference %+v", got, want)
			}
			if ref.stats().PrefUseful == 0 {
				t.Fatal("no prefetch was used; the streams no longer exercise the mark")
			}
		})
	}
}
