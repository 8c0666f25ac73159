// Package kvstore is an in-memory key/value object cache built over the
// managed heap — the serving-system data structure behind the KV server
// workload. Every entry is a chain-linked heap object whose payload is a
// separately allocated word array, so SET churn produces exactly the
// mixed-lifetime, mixed-size allocation pattern a memcached-style cache
// imposes on a collector: long-lived index structure, medium-lived
// values replaced on version bumps, and per-request garbage.
//
// A Store is owned by exactly one Mutator (one server thread). The KV
// workload shards keys across threads (slot mod threads), so no two
// stores ever hold the same key and no application-level locking is
// needed; heap-word accesses are independently atomic underneath.
//
// Pinning discipline: Alloc* calls contain safepoints, so no heap
// reference obtained before an allocation may be used after it without
// being re-read from a root slot. Chain walks (LoadRef/LoadField only)
// are safepoint-free and may hold refs in locals.
package kvstore

import (
	"hcsgc"
	"hcsgc/internal/objmodel"
)

// Entry layout: a fixed 4-field object.
const (
	fKey     = 0 // generation-qualified key
	fVersion = 1 // bumped on every SET of an existing key
	fValue   = 2 // ref: word-array payload
	fNext    = 3 // ref: bucket chain
)

// RootSlots is the number of mutator root slots a Store needs; pass at
// least this to NewMutator for a server thread.
const RootSlots = 3

// Root-slot assignments within [0, RootSlots).
const (
	rootBuckets = 0 // the bucket ref-array, pinned for the store's life
	rootPinA    = 1 // operation-scoped pin across allocations
)

// Types holds the heap types a Store allocates. Register once per
// runtime and share across that runtime's stores.
type Types struct {
	Entry *hcsgc.Type
}

// RegisterTypes registers the store's object layouts with a runtime's
// type registry.
func RegisterTypes(reg *objmodel.Registry) Types {
	return Types{
		Entry: reg.Register("kv.entry", 4, []int{fValue, fNext}),
	}
}

// Store is one server thread's shard: a chained hash table from uint64
// keys to word-array values, living entirely in the managed heap.
type Store struct {
	m     *hcsgc.Mutator
	types Types
	mask  uint64 // bucket count - 1 (power of two)
	size  int    // live entries
	// buf carries a value between the heap and Get's sum or TrySet's
	// fill, one word run of up to len(buf) words at a time.
	buf [valueChunk]uint64
}

// valueChunk is the words a value moves in one word run: every value the
// load generator draws fits in one.
const valueChunk = 64

// New builds a store over m, sized for about expectKeys entries. The
// bucket array is allocated immediately and pinned at root slot
// rootBuckets for the store's lifetime. Panics on heap exhaustion;
// serving paths that must degrade instead use TryNew.
func New(m *hcsgc.Mutator, types Types, expectKeys int) *Store {
	s, err := TryNew(m, types, expectKeys)
	if err != nil {
		panic(err)
	}
	return s
}

// TryNew is New returning ErrOutOfMemory (in the error chain) instead of
// panicking when the heap cannot hold the bucket array — a server thread
// on an exhausted heap degrades to failing its requests rather than
// killing the process (goroutine panics are uncatchable from outside).
func TryNew(m *hcsgc.Mutator, types Types, expectKeys int) (*Store, error) {
	if m.NumRoots() < RootSlots {
		panic("kvstore: mutator needs at least RootSlots root slots")
	}
	buckets := 16
	for buckets < expectKeys {
		buckets <<= 1
	}
	s := &Store{m: m, types: types, mask: uint64(buckets) - 1}
	arr, err := m.TryAllocRefArray(buckets)
	if err != nil {
		return nil, err
	}
	m.SetRoot(rootBuckets, arr)
	return s, nil
}

// mix is a 64-bit finalizer (splitmix64's) spreading sequential keys
// across buckets.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// valueWord is word i of a value payload — a pure function of key and
// version, so a GET's payload sum is checkable without remembering
// writes.
func valueWord(key, version uint64, i int) uint64 {
	return key*2654435761 + version*1000003 + uint64(i)
}

// ValueSum is the payload sum Get returns for (key, version) with the
// given word count — the oracle for checksum verification.
func ValueSum(key, version uint64, words int) uint64 {
	var sum uint64
	for i := 0; i < words; i++ {
		sum += valueWord(key, version, i)
	}
	return sum
}

// Len returns the number of live entries.
func (s *Store) Len() int { return s.size }

// bucketOf returns the bucket index for a key.
func (s *Store) bucketOf(key uint64) int { return int(mix(key) & s.mask) }

// find walks key's chain. Safepoint-free: the returned refs are valid
// until the next allocation.
func (s *Store) find(key uint64) (entry hcsgc.Ref) {
	m := s.m
	cur := m.LoadRef(m.LoadRoot(rootBuckets), s.bucketOf(key))
	for cur != hcsgc.NullRef {
		if m.LoadField(cur, fKey) == key {
			return cur
		}
		cur = m.LoadRef(cur, fNext)
	}
	return hcsgc.NullRef
}

// Get reads key's payload and returns its word sum. A miss returns
// (0, false); the caller decides whether to read-through.
func (s *Store) Get(key uint64) (sum uint64, hit bool) {
	e := s.find(key)
	if e == hcsgc.NullRef {
		return 0, false
	}
	m := s.m
	val := m.LoadRef(e, fValue)
	n := m.ArrayLen(val)
	for i := 0; i < n; i += valueChunk {
		chunk := s.buf[:min(n-i, valueChunk)]
		m.LoadFields(val, i, chunk)
		for _, w := range chunk {
			sum += w
		}
	}
	return sum, true
}

// fill writes the words-long payload of (key, version) into val.
func (s *Store) fill(val hcsgc.Ref, key, version uint64, words int) {
	for i := 0; i < words; i += valueChunk {
		chunk := s.buf[:min(words-i, valueChunk)]
		for j := range chunk {
			chunk[j] = valueWord(key, version, i+j)
		}
		s.m.StoreFields(val, i, chunk)
	}
}

// Version returns key's current version, 0 if absent.
func (s *Store) Version(key uint64) uint64 {
	e := s.find(key)
	if e == hcsgc.NullRef {
		return 0
	}
	return s.m.LoadField(e, fVersion)
}

// Set writes key with a fresh words-long payload, inserting the entry or
// bumping its version and replacing the old payload (which becomes
// garbage). Returns the stored version. On heap exhaustion it panics
// with the error TrySet would return; callers that want to degrade
// gracefully use TrySet.
func (s *Store) Set(key uint64, words int) uint64 {
	version, err := s.TrySet(key, words)
	if err != nil {
		panic(err)
	}
	return version
}

// TrySet is Set with graceful failure: allocation errors (heap
// exhaustion, an expired per-request allocation budget) unwind as an
// error instead of panicking. A failed TrySet never mutates the index —
// both the update and insert paths allocate before publishing — so the
// store stays consistent and the request can be shed or retried.
func (s *Store) TrySet(key uint64, words int) (uint64, error) {
	if words < 1 {
		words = 1
	}
	m := s.m
	e := s.find(key)
	if e != hcsgc.NullRef {
		version := m.LoadField(e, fVersion) + 1
		m.SetRoot(rootPinA, e)
		val, err := m.TryAllocWordArray(words) // safepoint: e is stale now
		if err != nil {
			m.SetRoot(rootPinA, 0)
			return 0, err
		}
		s.fill(val, key, version, words)
		e = m.LoadRoot(rootPinA)
		m.StoreField(e, fVersion, version)
		m.StoreRef(e, fValue, val)
		m.SetRoot(rootPinA, 0)
		return version, nil
	}
	// Insert: payload first, pinned across the entry allocation.
	const version = 1
	val, err := m.TryAllocWordArray(words)
	if err != nil {
		return 0, err
	}
	s.fill(val, key, version, words)
	m.SetRoot(rootPinA, val)
	e, err = m.TryAlloc(s.types.Entry) // safepoint: val is stale now
	if err != nil {
		m.SetRoot(rootPinA, 0) // the orphaned payload becomes garbage
		return 0, err
	}
	m.StoreField(e, fKey, key)
	m.StoreField(e, fVersion, version)
	m.StoreRef(e, fValue, m.LoadRoot(rootPinA))
	b := s.bucketOf(key)
	buckets := m.LoadRoot(rootBuckets)
	m.StoreRef(e, fNext, m.LoadRef(buckets, b))
	m.StoreRef(buckets, b, e)
	m.SetRoot(rootPinA, 0)
	s.size++
	return version, nil
}

// Delete unlinks key; the entry and its payload become garbage. Reports
// whether the key was present.
func (s *Store) Delete(key uint64) bool {
	m := s.m
	b := s.bucketOf(key)
	buckets := m.LoadRoot(rootBuckets)
	prev := hcsgc.NullRef
	cur := m.LoadRef(buckets, b)
	for cur != hcsgc.NullRef {
		next := m.LoadRef(cur, fNext)
		if m.LoadField(cur, fKey) == key {
			if prev == hcsgc.NullRef {
				m.StoreRef(buckets, b, next)
			} else {
				m.StoreRef(prev, fNext, next)
			}
			s.size--
			return true
		}
		prev, cur = cur, next
	}
	return false
}

// Scan walks n consecutive buckets starting at startBucket (wrapping),
// summing each live entry's version and first payload word — a
// range-scan-shaped read touching many chains without allocating.
func (s *Store) Scan(startBucket, n int) (sum uint64, touched int) {
	m := s.m
	buckets := m.LoadRoot(rootBuckets)
	total := int(s.mask) + 1
	if n > total {
		n = total
	}
	for i := 0; i < n; i++ {
		b := (startBucket + i) & int(s.mask)
		cur := m.LoadRef(buckets, b)
		for cur != hcsgc.NullRef {
			sum += m.LoadField(cur, fVersion)
			sum += m.LoadField(m.LoadRef(cur, fValue), 0)
			touched++
			cur = m.LoadRef(cur, fNext)
		}
	}
	return sum, touched
}
