// Package simmem implements a software model of a memory hierarchy:
// set-associative caches with LRU replacement, a stream prefetcher, and a
// cycle cost model. It substitutes for the hardware performance counters
// (perf: L1-dcache-loads, L1-dcache-load-misses, LLC-load-misses) used in
// the paper's evaluation. Addresses fed to the model are the simulated
// heap addresses produced by internal/heap, so object layout decisions made
// by the collector directly determine hit rates here.
package simmem

import (
	"fmt"

	"hcsgc/internal/arena"
)

// LineSize is the cache line size in bytes. The paper assumes the common
// 64-byte line (§3.4).
const LineSize = 64

// lineShift is log2(LineSize).
const lineShift = 6

// Cache is a single level of set-associative cache with LRU replacement.
// It is not safe for concurrent use; concurrency is handled by the owning
// Hierarchy (private L1/L2 per core, lock around the shared LLC).
type Cache struct {
	name    string
	sets    uint64 // number of sets, power of two
	ways    int
	setMask uint64
	// tags holds sets*ways line tags, 0 = invalid. Each set is kept in
	// recency order, most recently used first, with its valid tags packed
	// at the front: position is the LRU state, the victim is always the
	// last way, and a set is ways*8 contiguous bytes (one or two host
	// cache lines for the default geometries). A line Prefetch installed
	// carries the prefetched bit until its first demand hit.
	tags []uint64
	// Counters are plain, like the rest of the cache: whoever owns it reads
	// them. Access counts hits and misses, Prefetch prefills, and every
	// demand lookup useful prefetches; a Core keeps its own demand ledger
	// for its private levels and publishes their prefills and useful
	// prefetches, and the hierarchy derives the shared LLC's.
	hits     uint64
	misses   uint64
	prefills uint64 // lines installed by prefetch rather than demand
	useful   uint64 // prefilled lines a demand access then hit
}

// prefetched marks a tag whose line Prefetch installed and no demand
// access has hit since. Line addresses stop at bit 58, so the top bit is
// free; only the caches Prefetch fills ever hold it.
const prefetched = 1 << 63

// CacheConfig describes a cache level.
type CacheConfig struct {
	Name string
	Size int // total bytes
	Ways int
}

// NewCache builds a cache from a config. Size must be a multiple of
// Ways*LineSize and the resulting set count must be a power of two. Its
// tags come from the process-wide arena (internal/arena), to which a
// hierarchy's Release hands them back.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("simmem: cache %q: ways must be positive, got %d", cfg.Name, cfg.Ways)
	}
	if cfg.Size <= 0 || cfg.Size%(cfg.Ways*LineSize) != 0 {
		return nil, fmt.Errorf("simmem: cache %q: size %d not a multiple of ways*linesize (%d)", cfg.Name, cfg.Size, cfg.Ways*LineSize)
	}
	sets := uint64(cfg.Size / (cfg.Ways * LineSize))
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("simmem: cache %q: set count %d is not a power of two", cfg.Name, sets)
	}
	return &Cache{
		name:    cfg.Name,
		sets:    sets,
		ways:    cfg.Ways,
		setMask: sets - 1,
		tags:    arena.Words.Get(int(sets) * cfg.Ways),
	}, nil
}

// MustNewCache is NewCache but panics on configuration error. Intended for
// package-level defaults that are statically known to be valid.
func MustNewCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// line converts a byte address to a line address (tag material).
// Line addresses are offset by 1 so that tag 0 always means "invalid".
func line(addr uint64) uint64 { return (addr >> lineShift) + 1 }

// setOf returns the set index for a line address.
func (c *Cache) setOf(ln uint64) uint64 { return (ln - 1) & c.setMask }

// Access looks up addr, returns true on hit. On miss the line is installed,
// evicting the LRU way of its set.
//
//hcsgc:alloc-free
func (c *Cache) Access(addr uint64) bool {
	hit := c.demand(line(addr))
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return hit
}

// Hits returns the demand hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the demand miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// Prefills returns the count of lines installed by prefetching.
func (c *Cache) Prefills() uint64 { return c.prefills }

// Contains reports whether addr's line is present without altering LRU
// state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	ln := line(addr)
	base := c.setOf(ln) * uint64(c.ways)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+uint64(w)]&^prefetched == ln {
			return true
		}
	}
	return false
}

// Prefetch installs addr's line if absent, marked as prefetched, without
// counting a demand hit or miss. Returns true if the line was newly
// installed.
//
//hcsgc:alloc-free
func (c *Cache) Prefetch(addr uint64) bool {
	ln := line(addr)
	installed := c.lookup(ln, ln|prefetched) == 0
	if installed {
		c.prefills++
	}
	return installed
}

// demand is touch for a cache Prefetch fills: a hit on a prefetched line
// counts it useful and clears its mark.
//
//hcsgc:alloc-free
func (c *Cache) demand(ln uint64) bool {
	found := c.lookup(ln, ln)
	if found&prefetched != 0 {
		c.useful++
	}
	return found != 0
}

// touch looks up ln and makes it the most recently used line of its set,
// installing it over the least recently used one if absent. Returns true if
// it was present. Demand accesses and prefetches age a set alike
// (prefetchers re-prime lines). One pass does the lookup and the reordering:
// every tag passed over moves one way towards the LRU end, so a hit at way w
// rotates ways 0..w and a miss shifts the whole set, dropping the last tag.
func (c *Cache) touch(ln uint64) bool {
	base := c.setOf(ln) * uint64(c.ways)
	set := c.tags[base : base+uint64(c.ways)]
	prev := set[0]
	if prev == ln {
		return true
	}
	set[0] = ln
	for w := 1; w < len(set) && prev != 0; w++ {
		prev, set[w] = set[w], prev
		if prev == ln {
			return true
		}
	}
	return false
}

// lookup is touch for a cache whose tags may carry the prefetched mark:
// ln matches its tag with or without it, and the set is reordered the same
// way. A miss installs fill (ln, marked or not); a hit leaves the line
// marked only if both the found tag and fill are. Returns the tag found,
// 0 on a miss.
//
//hcsgc:alloc-free
func (c *Cache) lookup(ln, fill uint64) uint64 {
	base := c.setOf(ln) * uint64(c.ways)
	set := c.tags[base : base+uint64(c.ways)]
	prev := set[0]
	if prev&^prefetched == ln {
		set[0] = prev & fill
		return prev
	}
	set[0] = fill
	for w := 1; w < len(set) && prev != 0; w++ {
		prev, set[w] = set[w], prev
		if prev&^prefetched == ln {
			set[0] = prev & fill
			return prev
		}
	}
	return 0
}

// release hands the tags back to the arena; the cache holds no lines
// afterwards and must not be accessed again. Its counters stay readable.
func (c *Cache) release() {
	if c.tags != nil {
		arena.Words.Put(c.tags, len(c.tags))
		c.tags = nil
	}
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	c.hits, c.misses, c.prefills, c.useful = 0, 0, 0, 0
}

// Name returns the configured display name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.sets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the total capacity in bytes.
func (c *Cache) SizeBytes() int { return int(c.sets) * c.ways * LineSize }
