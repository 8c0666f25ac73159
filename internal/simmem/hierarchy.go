package simmem

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"hcsgc/internal/contention"
)

// Latencies gives the access cost, in CPU cycles, of a hit at each level of
// the hierarchy. The defaults approximate the paper's i7-4600U (Haswell):
// L1 4 cycles, L2 12, LLC ~40, DRAM ~200. The paper's own argument in §4.4
// ("access latency of LLC is roughly 10x of that of L1") is consistent with
// this model.
type Latencies struct {
	L1  uint64
	L2  uint64
	LLC uint64
	Mem uint64
}

// DefaultLatencies matches the i7-4600U description in §4.
func DefaultLatencies() Latencies {
	return Latencies{L1: 4, L2: 12, LLC: 40, Mem: 200}
}

// HierarchyConfig describes the simulated memory system.
type HierarchyConfig struct {
	L1  CacheConfig
	L2  CacheConfig
	LLC CacheConfig
	Lat Latencies
	// PrefetchDepth is how many lines ahead the per-core stream prefetcher
	// runs; 0 disables prefetching.
	PrefetchDepth int
}

// DefaultConfig models the laptop used for all benchmarks except SPECjbb:
// 32KB L1d (8-way), 256KB L2 (8-way), 4MB shared LLC (16-way).
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:            CacheConfig{Name: "L1d", Size: 32 << 10, Ways: 8},
		L2:            CacheConfig{Name: "L2", Size: 256 << 10, Ways: 8},
		LLC:           CacheConfig{Name: "LLC", Size: 4 << 20, Ways: 16},
		Lat:           DefaultLatencies(),
		PrefetchDepth: 4,
	}
}

// ServerConfig is the tests' second geometry, after the paper's AMD
// Opteron 6276: 16KB 4-way L1d, 2MB L2, and the machine's 6MB LLC as 24
// ways of 4096 sets (the model requires a power-of-two set count). No run
// selects it: fig13 and the jbb-alloc benchmark run DefaultConfig. Its
// 4-way L1 and 24-way LLC are scanned by the Go loops, not the AVX-512
// set kernel, so the tests that build it exercise the fallback.
func ServerConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:            CacheConfig{Name: "L1d", Size: 16 << 10, Ways: 4},
		L2:            CacheConfig{Name: "L2", Size: 2 << 20, Ways: 16},
		LLC:           CacheConfig{Name: "LLC", Size: 6 << 20, Ways: 24},
		Lat:           DefaultLatencies(),
		PrefetchDepth: 4,
	}
}

// Core is the private part of the hierarchy belonging to one hardware
// thread: L1, L2 and the stream prefetcher. Each mutator or GC worker owns
// one Core. Core methods are not safe for concurrent use by multiple
// goroutines; each goroutine must own its Core exclusively. The exception
// is the published mirror, which is all another goroutine ever reads (see
// Publish).
//
// The struct is laid out by writer, one 64-byte host line each, so that a
// neighbouring Core's counters never share a line with the pointers this
// one reads on every access (TestHotStructLayout pins it).
type Core struct {
	// Read-mostly header, written by NewCore only.
	l1  *Cache
	l2  *Cache
	pf  *Prefetcher
	sys *Hierarchy
	lat Latencies

	// The owner's ledger: plain counters only the owning goroutine touches,
	// so a simulated access executes no locked instruction for bookkeeping.
	led ledger
	_   [64 - unsafe.Sizeof(ledger{})]byte

	// The published mirror: what the owner last made visible. Written by
	// Publish and Reset, read by Hierarchy.Stats and PublishedCycles.
	pub struct {
		loads, stores, l1miss, l2miss, llcmiss atomic.Uint64
		pfIssued, l2Prefills, prefUseful       atomic.Uint64
	}
}

// ledger counts line accesses and the misses of each level they went on
// to. Everything else is derived from it — a level's hits are its accesses
// minus its misses, and since a line access costs exactly the latency of
// the level that served it, so is the cycle total.
type ledger struct {
	loads   uint64
	stores  uint64
	l1miss  uint64
	l2miss  uint64
	llcmiss uint64 // this core's share of the shared LLC's misses
}

// cycles is the accumulated memory-access cost: every line access at L1
// cost, plus each level's miss penalty times its misses. With latencies
// that do not fall from one level to the next every term is a monotone
// counter times a non-negative step, so a sequence of published ledgers
// never shows cycles going backwards.
func (l ledger) cycles(lat Latencies) uint64 {
	return (l.loads+l.stores)*lat.L1 +
		l.l1miss*(lat.L2-lat.L1) +
		l.l2miss*(lat.LLC-lat.L2) +
		l.llcmiss*(lat.Mem-lat.LLC)
}

// llcLock guards one group of llcLockSets consecutive LLC sets, padded to
// two host lines so that neighbouring locks' words (and the acquisition
// counts beside them) never share one, adjacent-line prefetch included.
type llcLock struct {
	mu contention.Mutex
	_  [128 - unsafe.Sizeof(contention.Mutex{})]byte
}

// llcLockSets is how many consecutive LLC sets one lock covers: 64 locks
// for both default geometries' 4096 sets, one for an LLC of 64 sets or
// fewer. Fewer locks collide more often; more split prefetch runs (which
// walk consecutive sets under one acquisition) across groups more often
// (EXPERIMENTS.md "The simmem.llcMu stripe fix").
const llcLockSets = 64

// Hierarchy is the whole memory system: a shared LLC plus per-core private
// levels. The LLC is one cache over all its sets; each group of
// llcLockSets consecutive sets has its own lock, which only decides who
// may touch those sets at a given moment, never what the model computes.
// Private levels are lock-free by ownership.
type Hierarchy struct {
	cfg   HierarchyConfig
	llc   *Cache
	locks []llcLock

	coresMu contention.Mutex
	cores   []*Core
}

// NewHierarchy validates cfg and builds the shared levels.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	llc, err := NewCache(cfg.LLC)
	if err != nil {
		return nil, err
	}
	if cfg.Lat == (Latencies{}) {
		cfg.Lat = DefaultLatencies()
	}
	return &Hierarchy{
		cfg:   cfg,
		llc:   llc,
		locks: make([]llcLock, (llc.sets+llcLockSets-1)/llcLockSets),
	}, nil
}

// SetContention attributes the hierarchy's shared locks to the plane.
// All LLC locks share one "simmem.llcMu" site. Call before any core
// exists.
func (h *Hierarchy) SetContention(p *contention.Plane) {
	llc := p.NewSite("simmem.llcMu")
	for i := range h.locks {
		h.locks[i].mu.Instrument(llc)
	}
	h.coresMu.Instrument(p.NewSite("simmem.coresMu"))
}

// MustNewHierarchy is NewHierarchy but panics on error.
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// NewCore allocates a private L1/L2/prefetcher bound to this hierarchy.
func (h *Hierarchy) NewCore() *Core {
	c := &Core{
		l1:  MustNewCache(h.cfg.L1),
		l2:  MustNewCache(h.cfg.L2),
		pf:  NewPrefetcher(h.cfg.PrefetchDepth),
		sys: h,
		lat: h.cfg.Lat,
	}
	h.coresMu.Lock()
	h.cores = append(h.cores, c)
	h.coresMu.Unlock()
	return c
}

// Load simulates a demand load of the given byte range [addr, addr+size)
// and returns its cost in cycles. Ranges crossing line boundaries touch
// each line once. Runs on every simulated heap access: alloc-free.
//
//hcsgc:alloc-free
func (c *Core) Load(addr uint64, size int) uint64 {
	// Word accesses (heap.LoadWord and friends) never straddle a line: go
	// straight to the L1 lookup.
	if addr&(LineSize-1)+uint64(size) <= LineSize {
		c.led.loads++
		if ln := line(addr); !c.l1.touch(ln) {
			return c.missLine(addr, ln)
		}
		return c.lat.L1
	}
	return c.access(addr, size, false)
}

// Store simulates a demand store. The model is write-allocate,
// write-back, so the cost model is the same as a load.
//
//hcsgc:alloc-free
func (c *Core) Store(addr uint64, size int) uint64 {
	if addr&(LineSize-1)+uint64(size) <= LineSize {
		c.led.stores++
		if ln := line(addr); !c.l1.touch(ln) {
			return c.missLine(addr, ln)
		}
		return c.lat.L1
	}
	return c.access(addr, size, true)
}

// wordSize is the width of one access of a word run (LoadRun, StoreRun).
const wordSize = 8

// LoadRun simulates demand loads of the n consecutive 8-byte words from
// addr on and returns their summed cost: exactly what n calls of
// Load(addr+8i, 8) would do. The first word of each line takes the full
// Load path; that leaves the line most recently used in its L1 set, where
// a further Load would only count itself (a hit on a set's first way moves
// nothing, and the prefetcher sees only misses), so the line's other words
// are one counter bump. Alloc-free, like Load.
//
//hcsgc:alloc-free
func (c *Core) LoadRun(addr uint64, n int) uint64 {
	return c.run(addr, n, false)
}

// StoreRun is LoadRun for demand stores: n calls of Store(addr+8i, 8).
//
//hcsgc:alloc-free
func (c *Core) StoreRun(addr uint64, n int) uint64 {
	return c.run(addr, n, true)
}

func (c *Core) run(addr uint64, n int, store bool) uint64 {
	var total uint64
	if addr&(wordSize-1) != 0 {
		// A misaligned run has words that straddle lines: word by word.
		for ; n > 0; n, addr = n-1, addr+wordSize {
			if store {
				total += c.Store(addr, wordSize)
			} else {
				total += c.Load(addr, wordSize)
			}
		}
		return total
	}
	for n > 0 {
		k := min(n, int((LineSize-addr&(LineSize-1))/wordSize))
		rest := uint64(k - 1)
		if store {
			total += c.Store(addr, wordSize)
			c.led.stores += rest
		} else {
			total += c.Load(addr, wordSize)
			c.led.loads += rest
		}
		total += rest * c.lat.L1
		n -= k
		addr += uint64(k) * wordSize
	}
	return total
}

// access is the path for ranges that straddle lines (object copies): one
// single-line access per line of the range. A negative size wraps past the
// fast path's check and counts, like zero, as one byte.
func (c *Core) access(addr uint64, size int, store bool) uint64 {
	if size <= 0 {
		size = 1
	}
	var total uint64
	first := addr &^ uint64(LineSize-1)
	last := (addr + uint64(size) - 1) &^ uint64(LineSize-1)
	for a := first; ; a += LineSize {
		if store {
			total += c.Store(a, 1)
		} else {
			total += c.Load(a, 1)
		}
		if a >= last {
			break
		}
	}
	return total
}

// Loads returns the demand load count. Owner view, like Stats.
func (c *Core) Loads() uint64 { return c.led.loads }

// Stores returns the demand store count. Owner view, like Stats.
func (c *Core) Stores() uint64 { return c.led.stores }

// Cycles returns the accumulated memory-access cost in cycles. Owner view:
// exact, and only for the owning goroutine (or one the owner has handed
// the core to with a happens-before edge).
func (c *Core) Cycles() uint64 { return c.led.cycles(c.lat) }

// missLine continues an access whose line missed L1: L2 -> LLC -> memory.
// It returns the cycle cost of the whole access.
func (c *Core) missLine(addr, ln uint64) uint64 {
	c.led.l1miss++
	// Consult the prefetcher on the demand-miss stream. Its targets fill L2
	// and the LLC (hardware prefetchers typically fill L2/LLC, and our L1
	// refill path then finds them there at L2 cost) ahead of the demand
	// lookup at each level. The L2 marks the lines it is prefetched into,
	// and its demand lookup counts a marked line's first hit as a useful
	// prefetch; the LLC is never marked. The private L2 goes first so that
	// everything the shared LLC is asked — prefetch fills, then the demand
	// access — happens in one go: consecutive lines fall in one lock's set
	// group, so one acquisition covers each run of same-group work. The LLC
	// is only touched; its demand counters are derived from the cores'
	// ledgers (see Hierarchy.Stats).
	targets := c.pf.OnMiss(addr)
	for _, t := range targets {
		c.l2.Prefetch(t)
	}
	l2hit := c.l2.demand(ln)
	llc := c.sys.llc
	var held *llcLock
	for _, t := range targets {
		held = c.sys.lockLLC(t, held)
		llc.touch(line(t))
	}
	cost := c.lat.L2
	if !l2hit {
		c.led.l2miss++
		held = c.sys.lockLLC(addr, held)
		cost = c.lat.LLC
		if !llc.touch(ln) {
			c.led.llcmiss++
			cost = c.lat.Mem
		}
	}
	if held != nil {
		held.mu.Unlock()
	}
	return cost
}

// lockLLC returns the lock of addr's LLC set group, locked. held is the
// lock the caller already holds, if any: it is kept when addr maps to it
// and released otherwise, so a caller never holds two.
func (h *Hierarchy) lockLLC(addr uint64, held *llcLock) *llcLock {
	l := &h.locks[h.llc.setOf(line(addr))/llcLockSets]
	if l != held {
		if held != nil {
			held.mu.Unlock()
		}
		l.mu.Lock()
	}
	return l
}

// Stats returns this core's counters. Owner view: exact, and only for the
// owning goroutine; other goroutines read Hierarchy.Stats.
func (c *Core) Stats() CoreStats {
	return c.led.stats(c.lat, c.pf.issued, c.l2.prefills, c.l2.useful)
}

func (l ledger) stats(lat Latencies, pfIssued, l2Prefills, prefUseful uint64) CoreStats {
	return CoreStats{
		Loads:      l.loads,
		Stores:     l.stores,
		L1Misses:   l.l1miss,
		L2Misses:   l.l2miss,
		LLCMisses:  l.llcmiss,
		Cycles:     l.cycles(lat),
		PrefIssued: pfIssued,
		L2Prefills: l2Prefills,
		PrefUseful: prefUseful,
	}
}

// Publish copies the owner's ledger into the published mirror, the only
// part of a Core another goroutine may read. Owner only. The contract for
// readers of the mirror (Hierarchy.Stats, PublishedCycles): it is exact
// whenever the owner is known to have published and not simulated since —
// in the runtime that is under stop-the-world, after Mutator.Close and
// after a GC worker phase — and otherwise lags the owner by whatever it has
// simulated since its last Publish.
//
// Counters are stored outermost level first and read innermost first
// (published), so a reader racing a Publish still sees each level's misses
// no greater than the accesses that reached it; likewise prefills are
// stored before useful prefetches and read after them, so a reader never
// sees more useful prefetches than prefills.
func (c *Core) Publish() {
	c.pub.loads.Store(c.led.loads)
	c.pub.stores.Store(c.led.stores)
	c.pub.l1miss.Store(c.led.l1miss)
	c.pub.l2miss.Store(c.led.l2miss)
	c.pub.llcmiss.Store(c.led.llcmiss)
	c.pub.pfIssued.Store(c.pf.issued)
	c.pub.l2Prefills.Store(c.l2.prefills)
	c.pub.prefUseful.Store(c.l2.useful)
}

// published reads the mirror's ledger; safe from any goroutine.
func (c *Core) published() ledger {
	var l ledger
	l.llcmiss = c.pub.llcmiss.Load()
	l.l2miss = c.pub.l2miss.Load()
	l.l1miss = c.pub.l1miss.Load()
	l.stores = c.pub.stores.Load()
	l.loads = c.pub.loads.Load()
	return l
}

// PublishedCycles returns Cycles as of the owner's last Publish; safe from
// any goroutine, and monotone between Resets.
func (c *Core) PublishedCycles() uint64 { return c.published().cycles(c.lat) }

// PublishedStats returns Stats as of the owner's last Publish; safe from any
// goroutine.
func (c *Core) PublishedStats() CoreStats {
	l := c.published()
	useful := c.pub.prefUseful.Load() // before prefills: see Publish
	return l.stats(c.lat, c.pub.pfIssued.Load(), c.pub.l2Prefills.Load(), useful)
}

// Reset clears the private levels and counters (not the shared LLC), and
// publishes the cleared ledger.
func (c *Core) Reset() {
	c.l1.Reset()
	c.l2.Reset()
	c.pf.Reset()
	c.led = ledger{}
	c.Publish()
}

// CoreStats is a snapshot of one core's activity.
type CoreStats struct {
	Loads    uint64 `json:"loads"`
	Stores   uint64 `json:"stores"`
	L1Misses uint64 `json:"l1_misses"`
	L2Misses uint64 `json:"l2_misses"`
	// LLCMisses is this core's share of the shared LLC's misses: its L2
	// misses that went on to memory.
	LLCMisses  uint64 `json:"llc_misses"`
	Cycles     uint64 `json:"cycles"`
	PrefIssued uint64 `json:"pref_issued"`
	L2Prefills uint64 `json:"l2_prefills"`
	// PrefUseful counts lines prefetched into L2 that a demand access then
	// hit, each once, at its first hit.
	PrefUseful uint64 `json:"pref_useful"`
}

// Add accumulates other into s.
func (s *CoreStats) Add(other CoreStats) {
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.L1Misses += other.L1Misses
	s.L2Misses += other.L2Misses
	s.LLCMisses += other.LLCMisses
	s.Cycles += other.Cycles
	s.PrefIssued += other.PrefIssued
	s.L2Prefills += other.L2Prefills
	s.PrefUseful += other.PrefUseful
}

// PrefetchAccuracy is PrefUseful over L2Prefills: the share of prefetched
// lines that a demand access used. -1 when nothing was prefetched. Over an
// interval of counts it can pass 1, by lines prefetched before it.
func (s CoreStats) PrefetchAccuracy() float64 {
	if s.L2Prefills == 0 {
		return -1
	}
	return float64(s.PrefUseful) / float64(s.L2Prefills)
}

// PrefetchCoverage is PrefUseful over PrefUseful + L2Misses: the share of
// the lines demand would otherwise have fetched from beyond L2 that the
// prefetcher had already brought in. Like accuracy it is -1 when nothing
// was prefetched (prefetching off, or no stream found): there is no
// prefetch to judge.
func (s CoreStats) PrefetchCoverage() float64 {
	if s.L2Prefills == 0 || s.PrefUseful+s.L2Misses == 0 {
		return -1
	}
	return float64(s.PrefUseful) / float64(s.PrefUseful+s.L2Misses)
}

// SystemStats aggregates process-wide counters in the way perf does for the
// paper (whole-process, mutators and GC threads indistinguishable).
type SystemStats struct {
	CoreStats
	LLCHits uint64
}

// Stats sums what every core has published (see Core.Publish for when that
// is exact). The shared LLC keeps no counters of its own: an access reaches
// it exactly when it misses some core's L2, so its demand misses are the
// sum of the cores' shares and its hits the rest of their L2 misses.
func (h *Hierarchy) Stats() SystemStats {
	var out SystemStats
	h.coresMu.Lock()
	cores := make([]*Core, len(h.cores))
	copy(cores, h.cores)
	h.coresMu.Unlock()
	for _, c := range cores {
		out.CoreStats.Add(c.PublishedStats())
	}
	out.LLCHits = out.L2Misses - out.LLCMisses
	return out
}

// Release hands the tag arrays of the shared LLC and of every core back to
// the process-wide arena, so that the next hierarchy built in this process
// starts from them (cold: the arena scrubs what it takes back). The caller
// guarantees that no core will simulate another access — every owner has
// closed, no GC worker runs — as Runtime.Close does before releasing the
// heap. An access after Release panics; Stats, every core's counters and
// its published mirror stay readable. A second Release does nothing.
func (h *Hierarchy) Release() {
	h.coresMu.Lock()
	cores := h.cores
	h.coresMu.Unlock()
	for _, c := range cores {
		c.l1.release()
		c.l2.release()
	}
	h.llc.release()
}

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// String summarises the geometry, e.g. for report headers.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("L1 %dKB/%dw, L2 %dKB/%dw, LLC %dMB/%dw, prefetch depth %d",
		h.cfg.L1.Size>>10, h.cfg.L1.Ways,
		h.cfg.L2.Size>>10, h.cfg.L2.Ways,
		h.cfg.LLC.Size>>20, h.cfg.LLC.Ways,
		h.cfg.PrefetchDepth)
}
