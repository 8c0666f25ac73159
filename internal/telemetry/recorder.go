package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder default sizing: shard count must be a power of two.
const (
	defaultShards       = 8
	defaultShardEvents  = 4096
	shardSelectionPrime = 0x9E3779B97F4A7C15
)

// shard is one independent ring of events. The mutex is only ever
// TryLock-ed by writers so a recording site never blocks a mutator or GC
// worker; contention is converted into the drop counter instead.
type shard struct {
	mu  sync.Mutex
	buf []Event
	// next is the total number of events ever written to this shard; the
	// ring slot is next % len(buf), so old events are overwritten.
	next uint64
	// pad keeps shards on separate cache lines.
	_ [40]byte
}

// Recorder is the low-overhead event sink: a fixed set of fixed-size
// per-shard ring buffers. Writers pick a shard by hashing their payload
// and timestamp, try-lock it, and either write one slot or bump the drop
// counter — there is no path that blocks.
//
// A nil *Recorder accepts all calls as no-ops (one branch), which is how
// disabled telemetry is compiled out of the runtime's hot paths.
type Recorder struct {
	shards []shard
	mask   uint64
	drops  atomic.Uint64
	// seq hands out the recorder-wide event order (see Event.Seq).
	seq atomic.Uint64
}

// NewRecorder builds a recorder with the given shard count (rounded up
// to a power of two) and per-shard capacity. Zero values select the
// defaults (8 shards x 4096 events).
func NewRecorder(shards, perShard int) *Recorder {
	if shards <= 0 {
		shards = defaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if perShard <= 0 {
		perShard = defaultShardEvents
	}
	r := &Recorder{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, perShard)
	}
	return r
}

// Record appends one event. Nil-safe; never blocks: under shard
// contention the event is dropped and counted instead.
func (r *Recorder) Record(kind EventKind, arg uint32, a, b uint64) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	s := &r.shards[(a*shardSelectionPrime^uint64(now))&r.mask]
	if !s.mu.TryLock() {
		r.drops.Add(1)
		return
	}
	ev := Event{Seq: r.seq.Add(1), TimeNS: now, Kind: kind, Arg: arg, A: a, B: b}
	s.buf[s.next%uint64(len(s.buf))] = ev
	s.next++
	s.mu.Unlock()
}

// Counter records one sample of the EvCounter series id, taken at the
// boundary of GC cycle seq.
func (r *Recorder) Counter(id uint32, v float64, seq uint64) {
	r.Record(EvCounter, id, math.Float64bits(v), seq)
}

// BeginSpan records the start of a named span on trace track tid.
func (r *Recorder) BeginSpan(id SpanID, tid uint32) {
	r.Record(EvSpanBegin, uint32(id), uint64(tid), 0)
}

// EndSpan records the end of a named span on trace track tid.
func (r *Recorder) EndSpan(id SpanID, tid uint32) {
	r.Record(EvSpanEnd, uint32(id), uint64(tid), 0)
}

// Dropped returns the number of events lost to shard contention.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.drops.Load()
}

// Overwritten returns the number of events lost to ring wrap-around.
func (r *Recorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if size := uint64(len(s.buf)); s.next > size {
			n += s.next - size
		}
		s.mu.Unlock()
	}
	return n
}

// Snapshot copies out the currently retained events, oldest first.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n := s.next
		if size := uint64(len(s.buf)); n > size {
			n = size
		}
		for j := uint64(0); j < n; j++ {
			out = append(out, s.buf[j])
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reset discards all retained events and zeroes the drop counter.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.next = 0
		s.mu.Unlock()
	}
	r.drops.Store(0)
}
