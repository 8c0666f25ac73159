// Package faultinject is a seeded, deterministic fault-injection plane for
// the collector's racy windows. The collector and heap thread named
// injection points through their hot paths (the forwarding-table CAS, the
// barrier slow path, safepoint entry, the UndoAlloc scrub, page
// commit/retire/free, the occupancy trigger); an armed Injector perturbs
// scheduling at those points, injects spurious commit failures, or
// suppresses the occupancy trigger, so races that the scheduler only loses
// under heavy load are forced on demand.
//
// A nil *Injector accepts every call as a no-op costing one predictable
// branch — the same discipline as the telemetry and locality hooks — so
// production paths pay nothing when fault injection is off
// (BenchmarkPlaneOverhead/faultinject-* proves it).
//
// Decisions are deterministic functions of (seed, point, per-point
// sequence number): the i-th decision taken at a point is the same for a
// given seed no matter which goroutine takes it. Goroutine interleaving
// still varies run to run — the seed pins the fault schedule, not the Go
// scheduler — which is exactly the CrashMonkey/Jepsen-style contract: a
// reproducer seed replays the same fault mix and decision sequence, making
// the buggy window overwhelmingly likely to reopen.
//
// Tests needing exact control register a hook at a point (SetHook): the
// hook runs synchronously at the injection site, letting a test perform
// the competing action itself (e.g. win a relocation race against the
// caller) instead of relying on probabilities.
package faultinject

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Point names one injection site threaded through internal/core and
// internal/heap.
type Point uint8

// The injection points.
const (
	// RelocInsert fires between the relocation copy and the
	// forwarding-table Insert CAS — the mutator-vs-GC race window.
	RelocInsert Point = iota
	// BarrierSlow fires at entry to the load-barrier slow path.
	BarrierSlow
	// SafepointEntry fires at entry to the mutator safepoint poll.
	SafepointEntry
	// UndoAllocPre fires in Page.UndoAlloc before the lost-race scrub.
	UndoAllocPre
	// UndoAllocPost fires after the scrub, before the bump-pointer CAS
	// republishes the region.
	UndoAllocPost
	// PageCommit guards the heap page-commit budget check; it can inject
	// a spurious ErrHeapFull (see Config.FailCommit).
	PageCommit
	// PageRetire fires when the collector retires allocation pages at STW1.
	PageRetire
	// PageFree fires at entry to Heap.FreePage.
	PageFree
	// DriverTrigger is consulted by the occupancy trigger; while
	// suppressed it never starts a cycle, forcing allocation stalls to
	// drive collection.
	DriverTrigger
	// DeadlineExpire fires at the mutator's per-request allocation-budget
	// check; Config.ForceDeadline can force the budget to report expiry
	// before the first heap touch (see Injector.ForceDeadline).
	DeadlineExpire
	// NumPoints is the number of injection points.
	NumPoints
)

var pointNames = [NumPoints]string{
	"reloc-insert", "barrier-slow", "safepoint-entry", "undo-alloc-pre",
	"undo-alloc-post", "page-commit", "page-retire", "page-free",
	"driver-trigger", "deadline-expire",
}

// String names the point, e.g. "reloc-insert".
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", uint8(p))
}

// Config is one fault schedule. The zero value arms no faults (useful for
// hook-only injectors in tests).
type Config struct {
	// Seed pins the decision sequence at every point.
	Seed int64
	// Delay[p] is the probability in [0,1] that a visit to point p yields
	// the processor, widening the racy window around the site.
	Delay [NumPoints]float64
	// MaxYields bounds the Gosched calls per fired delay (0 = 3).
	MaxYields int
	// FailCommit is the probability that a page commit reports a spurious
	// ErrHeapFull even though the budget has room.
	FailCommit float64
	// ForceDeadline is the probability that an armed per-request
	// allocation budget reports expiry before the first heap touch.
	ForceDeadline float64
	// SuppressDriver, while set, vetoes every cycle the occupancy trigger
	// would start, so that only allocation stalls and explicit requests
	// start cycles.
	SuppressDriver bool
}

// String renders the armed faults compactly for logs and reproducer lines.
func (c Config) String() string {
	s := fmt.Sprintf("seed=%d", c.Seed)
	for p := Point(0); p < NumPoints; p++ {
		if c.Delay[p] > 0 {
			s += fmt.Sprintf(" %s=%.2f", p, c.Delay[p])
		}
	}
	if c.FailCommit > 0 {
		s += fmt.Sprintf(" fail-commit=%.3f", c.FailCommit)
	}
	if c.ForceDeadline > 0 {
		s += fmt.Sprintf(" force-deadline=%.3f", c.ForceDeadline)
	}
	if c.SuppressDriver {
		s += " suppress-driver"
	}
	return s
}

// Randomized derives a chaos-mode fault schedule from a seed: moderate
// delay probabilities at every scheduling point, a small spurious
// commit-failure rate, and (for some seeds) trigger suppression. The same
// seed always yields the same schedule — it is the reproducer token the
// chaos soak prints on a violation.
func Randomized(seed int64) Config {
	cfg := Config{Seed: seed, MaxYields: 1 + int(mix(uint64(seed), 100)%4)}
	for p := Point(0); p < NumPoints; p++ {
		// Up to 30% per scheduling point; individually rolled so schedules
		// stress different windows on different seeds.
		cfg.Delay[p] = 0.3 * unit(uint64(seed), 200+uint64(p))
	}
	cfg.FailCommit = 0.02 * unit(uint64(seed), 300)
	// The deadline forcing is a no-op unless the workload arms per-request
	// deadlines, where it forces expiries at a low rate to keep the
	// fast-fail path under chaos coverage.
	cfg.ForceDeadline = 0.05 * unit(uint64(seed), 320)
	cfg.SuppressDriver = mix(uint64(seed), 400)%4 == 0
	return cfg
}

// hook is boxed behind an atomic pointer so SetHook is race-free against
// concurrent At calls.
type hook func(arg uint64)

// Injector is an armed fault plane. All methods are safe on a nil
// receiver (the disabled state: one predictable branch per site).
type Injector struct {
	cfg    Config
	yields int
	// thresholds holds Delay (and FailCommit) as 64-bit fixed-point
	// compare targets so the hot path is one integer compare.
	thresholds    [NumPoints]uint64
	failCommit    uint64
	forceDeadline uint64
	// seq[p] numbers decisions per point; decision i at point p is a pure
	// function of (seed, p, i).
	seq   [NumPoints]atomic.Uint64
	fired [NumPoints]atomic.Uint64
	hooks [NumPoints]atomic.Pointer[hook]
}

// New builds an injector for the given schedule.
func New(cfg Config) *Injector {
	inj := &Injector{cfg: cfg, yields: cfg.MaxYields}
	if inj.yields <= 0 {
		inj.yields = 3
	}
	for p := Point(0); p < NumPoints; p++ {
		inj.thresholds[p] = toThreshold(cfg.Delay[p])
	}
	inj.failCommit = toThreshold(cfg.FailCommit)
	inj.forceDeadline = toThreshold(cfg.ForceDeadline)
	return inj
}

// Config returns the schedule the injector was built with.
func (inj *Injector) Config() Config {
	if inj == nil {
		return Config{}
	}
	return inj.cfg
}

// toThreshold converts a probability to a uint64 compare target.
func toThreshold(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	default:
		return uint64(p * float64(1<<63) * 2)
	}
}

// mix is splitmix64's output function over a seed/stream pair.
func mix(seed, x uint64) uint64 {
	x = x*0x9e3779b97f4a7c15 + seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// unit maps a seed/stream pair to [0,1).
func unit(seed, x uint64) float64 {
	return float64(mix(seed, x)>>11) / float64(1<<53)
}

// At visits injection point p with a site-specific argument (typically the
// address being operated on). With probability Config.Delay[p] it yields
// the processor up to MaxYields times; any hook registered for p runs
// afterwards. A nil injector returns immediately.
func (inj *Injector) At(p Point, arg uint64) {
	if inj == nil {
		return
	}
	if inj.thresholds[p] != 0 {
		n := inj.seq[p].Add(1)
		if roll := mix(uint64(inj.cfg.Seed), uint64(p)<<56|n); roll < inj.thresholds[p] {
			inj.fired[p].Add(1)
			yields := 1 + int(roll%uint64(inj.yields))
			for i := 0; i < yields; i++ {
				runtime.Gosched()
			}
		}
	}
	if h := inj.hooks[p].Load(); h != nil {
		(*h)(arg)
	}
}

// FailCommit reports whether a page commit should fail spuriously with
// ErrHeapFull. A nil injector never fails a commit.
func (inj *Injector) FailCommit() bool {
	if inj == nil {
		return false
	}
	return inj.roll(PageCommit, inj.failCommit)
}

// roll takes a seeded per-point decision against a fixed-point threshold,
// counting fires; the shared body behind FailCommit and ForceDeadline.
func (inj *Injector) roll(p Point, threshold uint64) bool {
	if threshold == 0 {
		return false
	}
	n := inj.seq[p].Add(1)
	if mix(uint64(inj.cfg.Seed), uint64(p)<<56|n) < threshold {
		inj.fired[p].Add(1)
		return true
	}
	return false
}

// ForceDeadline reports whether an armed per-request allocation budget
// should report expiry before touching the heap. A nil injector never
// forces. Sits on the allocation fast path: alloc-free.
//
//hcsgc:alloc-free
func (inj *Injector) ForceDeadline() bool {
	if inj == nil {
		return false
	}
	return inj.roll(DeadlineExpire, inj.forceDeadline)
}

// DriverSuppressed reports whether the occupancy trigger is suppressed;
// each suppressed trigger is counted against DriverTrigger.
func (inj *Injector) DriverSuppressed() bool {
	if inj == nil || !inj.cfg.SuppressDriver {
		return false
	}
	inj.fired[DriverTrigger].Add(1)
	return true
}

// SetHook registers fn to run synchronously at every visit to p (nil
// unregisters). Hooks are the deterministic control surface for tests:
// they run on the visiting goroutine, after any probabilistic delay, with
// the site's argument.
func (inj *Injector) SetHook(p Point, fn func(arg uint64)) {
	if inj == nil {
		return
	}
	if fn == nil {
		inj.hooks[p].Store(nil)
		return
	}
	h := hook(fn)
	inj.hooks[p].Store(&h)
}

// Fired returns how many injections (delays, spurious failures,
// suppressed triggers) have fired at p.
func (inj *Injector) Fired(p Point) uint64 {
	if inj == nil {
		return 0
	}
	return inj.fired[p].Load()
}

// FiredTotal sums Fired over all points.
func (inj *Injector) FiredTotal() uint64 {
	var total uint64
	for p := Point(0); p < NumPoints; p++ {
		total += inj.Fired(p)
	}
	return total
}

// FiredByPoint snapshots the per-point fire counts keyed by point name,
// for chaos-soak reporting.
func (inj *Injector) FiredByPoint() map[string]uint64 {
	if inj == nil {
		return nil
	}
	out := make(map[string]uint64, NumPoints)
	for p := Point(0); p < NumPoints; p++ {
		if n := inj.fired[p].Load(); n > 0 {
			out[p.String()] = n
		}
	}
	return out
}
