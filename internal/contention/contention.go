// Package contention is the contention & scalability attribution plane:
// it answers "where do threads wait?" with a ranked list instead of a
// hunch. A long wait is not yet a contended lock: core.cycleMu ranks first
// because stalled mutators queue on it for a GC cycle to finish.
//
// Two kinds of serialization are attributed:
//
//   - Lock contention. The named hot locks (core.cycleMu, core.mutMu,
//     heap.mu, the simmem LLC/core registries, ...) are wrapped in
//     contention.Mutex, which records per-site acquisition counts,
//     contended-acquisition counts, and a wait-time HDR histogram. The
//     uncontended fast path is one TryLock plus one atomic add, on the
//     host line of the lock word itself; only a lost TryLock pays for a
//     clock read and a histogram record.
//
//   - CAS retry loops. OpSite counters attach to the known shared-
//     structure loops (forwarding-table install, page bump-pointer
//     allocation, markPool transfers) and separate attempts from retries
//     per structure.
//
// Every runtime has a contention plane. The heap, the memory model and a
// collector built directly (tests, probes) work without one: every
// recording primitive is nil-safe, and Mutex's zero value is the bare lock.
// Wait times are wall-clock nanoseconds (the simulated clock does not
// advance while a goroutine is parked in the Go scheduler), which is why
// this package — unlike core and latency — is exempt from the vtimepure
// analyzer.
package contention

import (
	"sync"
	"sync/atomic"
	"time"

	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Site accumulates lock-contention statistics for the mutexes registered
// under one name (several may share a site: the LLC set-group locks do).
// A nil *Site accepts every call as a no-op.
//
// Acquisitions are counted in each Mutex, beside its lock word, not here:
// one counter per site would be one host cache line every acquirer of every
// mutex of the site writes. The site sums its mutexes on read, and keeps
// them reachable for as long as it is — a plane shared across runtimes
// retains what their instrumented mutexes are embedded in.
type Site struct {
	name string
	// mu guards mutexes; taken by Instrument and the readers only.
	mu        sync.Mutex
	mutexes   []*Mutex
	contended atomic.Uint64
	// wait records the wall-clock nanoseconds a contended Lock spent
	// parked before acquiring.
	wait latency.Hist
	// The plane's view as of the last cycle boundary (see advance).
	seenAcq, seenContd telemetry.Counter
}

// reset empties the site for Plane.Reset: it forgets its mutexes and
// zeroes its counts.
func (s *Site) reset() {
	s.mu.Lock()
	clear(s.mutexes)
	s.mutexes = s.mutexes[:0]
	s.mu.Unlock()
	s.contended.Store(0)
	s.wait.Reset()
	s.seenAcq, s.seenContd = telemetry.Counter{}, telemetry.Counter{}
}

// Name returns the site's registration name.
func (s *Site) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Acquisitions returns the total Lock/TryLock acquisitions recorded by the
// site's mutexes.
func (s *Site) Acquisitions() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, m := range s.mutexes {
		total += m.acquisitions.Load()
	}
	return total
}

// Contended returns the acquisitions that lost their TryLock and had to
// block.
func (s *Site) Contended() uint64 {
	if s == nil {
		return 0
	}
	return s.contended.Load()
}

// Wait exposes the contended-wait histogram (nanoseconds) for summary
// export. Returns nil on a nil site.
func (s *Site) Wait() *latency.Hist {
	if s == nil {
		return nil
	}
	return &s.wait
}

// Mutex is sync.Mutex plus per-site contention attribution. The zero
// value is a valid uninstrumented mutex; Instrument attaches a Site
// before any concurrent use. Lock-order ranks (//hcsgc:lock-order) are
// carried by the declaring field exactly as with sync.Mutex — the
// lockorder analyzer treats this type as a mutex.
type Mutex struct {
	inner sync.Mutex
	site  *Site
	// acquisitions shares the lock word's host line, which an acquirer is
	// about to own anyway.
	acquisitions atomic.Uint64
}

// Instrument attaches the attribution site and registers the mutex with
// it. Must happen-before any concurrent Lock (it is a plain store), and
// once per mutex; called from constructors.
func (m *Mutex) Instrument(s *Site) {
	m.site = s
	if s != nil {
		s.mu.Lock()
		s.mutexes = append(s.mutexes, m)
		s.mu.Unlock()
	}
}

// Lock acquires the mutex, attributing the acquisition to the site.
// Uncontended cost over sync.Mutex: one TryLock plus one atomic add to the
// same host line. The clock is read only on the contended slow path.
//
//hcsgc:alloc-free
func (m *Mutex) Lock() {
	s := m.site
	if s == nil {
		m.inner.Lock()
		return
	}
	m.acquisitions.Add(1)
	if m.inner.TryLock() {
		return
	}
	s.contended.Add(1)
	t0 := time.Now()
	m.inner.Lock()
	s.wait.Record(uint64(time.Since(t0)))
}

// TryLock attempts the lock without blocking, counting only successful
// acquisitions (a failed TryLock is the caller's contention-avoidance
// strategy working, not a wait).
//
//hcsgc:alloc-free
func (m *Mutex) TryLock() bool {
	if !m.inner.TryLock() {
		return false
	}
	if m.site != nil {
		m.acquisitions.Add(1)
	}
	return true
}

// Unlock releases the mutex.
//
//hcsgc:alloc-free
func (m *Mutex) Unlock() { m.inner.Unlock() }

// OpSite counts attempts and retries of one shared-structure atomic
// loop (CAS install, bump-pointer race, queue transfer). A nil *OpSite
// accepts every call as a no-op, so instrumentation sites need no
// enabled checks.
type OpSite struct {
	name    string
	ops     atomic.Uint64
	retries atomic.Uint64
	// The plane's view as of the last cycle boundary (see advance).
	seenOps, seenRetries telemetry.Counter
}

// Name returns the op site's registration name.
func (o *OpSite) Name() string {
	if o == nil {
		return ""
	}
	return o.name
}

// Op counts one completed operation (however many retries it took).
//
//hcsgc:alloc-free
func (o *OpSite) Op() {
	if o == nil {
		return
	}
	o.ops.Add(1)
}

// Add counts n completed operations at once, for callers that tally their
// own and fold them in at a publication point.
func (o *OpSite) Add(n uint64) {
	if o == nil {
		return
	}
	o.ops.Add(n)
}

// Retry counts one failed attempt that had to loop.
//
//hcsgc:alloc-free
func (o *OpSite) Retry() {
	if o == nil {
		return
	}
	o.retries.Add(1)
}

// Ops returns total completed operations.
func (o *OpSite) Ops() uint64 {
	if o == nil {
		return 0
	}
	return o.ops.Load()
}

// Retries returns total failed attempts.
func (o *OpSite) Retries() uint64 {
	if o == nil {
		return 0
	}
	return o.retries.Load()
}
