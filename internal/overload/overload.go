// Package overload is the serving path's overload-protection plane: it
// turns heap-pressure collapse (every request queueing into an
// allocation-stall convoy, or a structured OOM aborting the run) into
// graceful brownout.
//
// Three mechanisms compose:
//
//   - Admission control. A Controller polls the signal plane
//     (signals.Plane.Latest: heap_pressure / stall_spike flags plus the
//     stall EWMA) and live heap occupancy, and moves Normal → Brownout →
//     Shed with hysteresis. Admit rejects a controllable, priority-aware
//     fraction of incoming requests with a structured ErrOverload before
//     they touch the heap: bulk work (scans, cache fills) sheds first,
//     point reads last.
//
//   - Deadline fast-fail. Requests carry a virtual-cycle deadline;
//     the serving loop arms it as a per-request allocation budget
//     (core.Mutator.SetAllocBudget), so a would-be convoy seat unwinds
//     promptly as ErrDeadlineExceeded instead of stalling through the
//     global retry budget.
//
//   - Emergency headroom. Under heap pressure the controller reserves an
//     emergency allocation headroom slice (the GC driver triggers as if
//     those bytes were already allocated) and can force an early cycle,
//     so the collector never enters a cycle with zero slack.
//
// A nil *Controller and a nil *Stats accept every call as a no-op costing
// one predictable branch — the same discipline as the telemetry,
// locality, and fault-injection planes.
package overload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hcsgc/internal/faultinject"
	"hcsgc/internal/signals"
)

// ErrOverload is the sentinel for a request rejected by admission
// control; match with errors.Is. The concrete error in the chain is an
// *Error carrying the controller state and the request's priority.
var ErrOverload = errors.New("overload: request shed by admission control")

// Error reports one shed admission decision.
type Error struct {
	// State is the controller state that shed the request.
	State State
	// Priority is the request's admission priority.
	Priority Priority
	// Seq is the request sequence number the decision hashed.
	Seq uint64
	// Forced marks a fault-injector-forced shed (chaos/testing).
	Forced bool
}

func (e *Error) Error() string {
	if e.Forced {
		return fmt.Sprintf("overload: request %d (%s) shed (injector-forced)", e.Seq, e.Priority)
	}
	return fmt.Sprintf("overload: request %d (%s) shed in state %s", e.Seq, e.Priority, e.State)
}

// Unwrap exposes the ErrOverload sentinel to errors.Is.
func (e *Error) Unwrap() error { return ErrOverload }

// Priority classifies requests for admission: bulk work is shed first,
// point operations last.
type Priority uint8

const (
	// PriorityPoint is a point operation (GET/SET/DELETE on one key):
	// shed only in StateShed.
	PriorityPoint Priority = iota
	// PriorityBulk is amplifying or deferrable work (scans, read-through
	// cache fills): shed from StateBrownout on.
	PriorityBulk
	// NumPriorities sizes per-priority tables.
	NumPriorities
)

var priorityNames = [NumPriorities]string{"point", "bulk"}

// String names the priority, e.g. "point".
func (p Priority) String() string {
	if p < NumPriorities {
		return priorityNames[p]
	}
	return fmt.Sprintf("Priority(%d)", uint8(p))
}

// State is the controller's admission state.
type State int32

const (
	// StateNormal admits everything.
	StateNormal State = iota
	// StateBrownout sheds bulk work (scans, fills) but admits point ops.
	StateBrownout
	// StateShed sheds all bulk work and a fraction of point ops.
	StateShed
	// NumStates sizes per-state tables.
	NumStates
)

var stateNames = [NumStates]string{"normal", "brownout", "shed"}

// String names the state, e.g. "brownout".
func (s State) String() string {
	if s >= 0 && s < NumStates {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Policy is the part of the overload plane a bench harness carries without
// touching the runtime: arming it (RunConfig.Overload != nil) turns
// protection on. Everything else about the plane is a calibrated constant
// below: the values are those of the acceptance run that gated the plane
// (goodput/Mcycle 2604 -> 3712 at 2x sustainable load), and the thresholds
// are what allocation-rate pacing of the GC trigger would derive instead.
type Policy struct {
	// Seed keys the deterministic per-request shed hash.
	Seed int64
}

// What the serving harness reads: the request budget and the client's
// retry behaviour.
const (
	// DeadlineCycles is the per-request virtual-cycle budget propagated
	// from the load generator and armed as the allocation budget.
	DeadlineCycles = 2_000_000
	// MaxStallsPerRequest bounds the allocation stalls one request may
	// absorb before failing fast.
	MaxStallsPerRequest = 2
	// MaxRetries is how many times the client retries a shed request (with
	// jittered backoff) before counting it failed.
	MaxRetries = 1
	// RetryBackoffCycles is the base backoff charged before a retry; the
	// jittered wait grows linearly with the attempt number. Small: in the
	// sharded serving model the wait occupies the shard's thread, so a
	// long backoff is itself head-of-line blocking.
	RetryBackoffCycles = 4_000
	// GoodputSLOCycles is the latency bound under which a successful
	// request counts as goodput.
	GoodputSLOCycles = 1_000_000
)

// The controller's thresholds.
const (
	// brownoutHeapPct / shedHeapPct are live-occupancy escalation
	// thresholds (percent of heap max). They sit above the
	// trigger-to-cycle oscillation band (the KV heap swings 70–90% in
	// healthy operation): occupancy alone escalates only when a cycle
	// failed to reclaim, and the normal escalation path is the signal
	// plane's heap_pressure / stall_spike flags, which fire on post-cycle
	// state rather than instantaneous use.
	brownoutHeapPct = 88
	shedHeapPct     = 97
	// stallEWMA escalates to at least Brownout when the signal plane's
	// per-cycle stall EWMA reaches it.
	stallEWMA = 0.75
	// shedStallBurst escalates straight to Shed when at least this many
	// allocation stalls landed since the previous poll (the live
	// convoy-in-progress signal; cycle-record flags are too stale to
	// de-escalate on convoy timescales).
	shedStallBurst = 3
	// exitPolls is the hysteresis: consecutive calm polls required to
	// step the state down one level. Escalation is immediate.
	exitPolls = 3
	// shedPointFrac is the fraction of point ops shed in StateShed (bulk
	// work sheds fully there).
	shedPointFrac = 0.25
	// brownoutBulkFrac is the fraction of bulk ops shed in Brownout.
	brownoutBulkFrac = 1
	// emergencyHeadroomBytes is the allocation headroom reserved while the
	// controller is at Brownout or above with heap pressure.
	emergencyHeadroomBytes = 512 << 10
)

// Hooks are the controller's levers into the runtime, wired per run by
// the serving harness. Any hook may be nil.
type Hooks struct {
	// HeapUsedPct returns live heap occupancy in percent.
	HeapUsedPct func() float64
	// Stalls returns the cumulative allocation-stall count (the
	// collector's global counter). The poll-to-poll delta is the
	// freshest convoy signal the controller has: cycle-record flags
	// only change when a GC cycle completes, which is far too coarse
	// to de-escalate on convoy timescales.
	Stalls func() uint64
	// SetHeadroom reserves (0 releases) emergency allocation headroom.
	SetHeadroom func(bytes uint64)
	// EmergencyGC requests an immediate collection cycle.
	EmergencyGC func()
}

// Controller is the admission-control state machine. Admit is lock-free
// (one atomic state load plus a seeded hash); Poll serializes internally
// and is meant to be called periodically from serving threads (every few
// dozen requests). All methods are safe on a nil receiver.
type Controller struct {
	pol   Policy
	plane *signals.Plane
	hooks Hooks
	inj   *faultinject.Injector
	stats *Stats

	state atomic.Int32
	// shedThresh[s][p] is the fixed-point shed probability for priority p
	// in state s, precomputed so Admit is one compare.
	shedThresh [NumStates][NumPriorities]uint64

	// mu guards the poll-side state; the poller reads the signal plane
	// while holding it, so it sits above Plane.mu in the global order.
	//
	//hcsgc:lock-order 50
	mu            sync.Mutex
	calmPolls     int
	headroomOn    bool
	lastStalls    uint64 // cumulative stall count at the previous poll
	stallsInit    bool
	lastEmergency uint64 // plane seq of the last emergency trigger
	firedOnce     bool   // an emergency fired before any plane record
}

// NewController builds a controller over the given policy, signal plane,
// runtime hooks, and (optional) fault injector; decisions and outcomes
// are recorded into stats (which may be shared across runs; nil means
// "don't record").
func NewController(pol Policy, plane *signals.Plane, hooks Hooks, inj *faultinject.Injector, stats *Stats) *Controller {
	ctrl := &Controller{pol: pol, plane: plane, hooks: hooks, inj: inj, stats: stats}
	ctrl.shedThresh[StateBrownout][PriorityBulk] = toThreshold(brownoutBulkFrac)
	ctrl.shedThresh[StateShed][PriorityBulk] = toThreshold(1)
	ctrl.shedThresh[StateShed][PriorityPoint] = toThreshold(shedPointFrac)
	return ctrl
}

// State returns the current admission state.
func (ctrl *Controller) State() State {
	if ctrl == nil {
		return StateNormal
	}
	return State(ctrl.state.Load())
}

// Poll re-evaluates the admission state from the latest signal-plane
// record and live heap occupancy, engages or releases emergency headroom,
// and (in Shed with heap pressure, at most once per GC cycle) forces an
// early collection. Returns the state in force after the poll.
func (ctrl *Controller) Poll() State {
	if ctrl == nil {
		return StateNormal
	}
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()

	var occ float64
	if ctrl.hooks.HeapUsedPct != nil {
		occ = ctrl.hooks.HeapUsedPct()
	}
	var stallAvg float64
	var heapFlag, stallFlag bool
	var seq uint64
	if ctrl.plane != nil {
		if rec, ok := ctrl.plane.Latest(); ok {
			seq = rec.Seq
			for _, d := range rec.Derived {
				switch d.Name {
				case signals.SigStalls:
					stallAvg = d.EWMA
				case signals.SigHeapUsed:
					// Between cycles the live reading can lag a burst; take
					// the worse of live and post-cycle EWMA.
					if d.EWMA > occ {
						occ = d.EWMA
					}
				}
			}
			for _, f := range rec.Flags {
				switch f {
				case signals.FlagHeapPressure:
					heapFlag = true
				case signals.FlagStallSpike:
					stallFlag = true
				}
			}
		}
	}

	// The live poll-to-poll stall delta is the primary escalation signal:
	// a convoy is forming NOW. Cycle-record flags and the occupancy
	// backstop catch sustained pressure, but they persist for a whole GC
	// cycle, so they only reach Brownout on their own — holding Shed for
	// millions of cycles after a 100k-cycle convoy drained sheds healthy
	// traffic for nothing.
	var stallDelta uint64
	if ctrl.hooks.Stalls != nil {
		cur := ctrl.hooks.Stalls()
		if ctrl.stallsInit {
			stallDelta = cur - ctrl.lastStalls
		}
		ctrl.lastStalls = cur
		ctrl.stallsInit = true
	}

	desired := StateNormal
	switch {
	case stallDelta >= shedStallBurst ||
		(stallDelta > 0 && heapFlag) ||
		occ >= shedHeapPct:
		desired = StateShed
	case stallDelta > 0 || occ >= brownoutHeapPct ||
		heapFlag || stallFlag || stallAvg >= stallEWMA:
		desired = StateBrownout
	}

	cur := State(ctrl.state.Load())
	next := cur
	switch {
	case desired > cur:
		// Escalate immediately: protection that waits for confirmation
		// arrives after the convoy has formed.
		next = desired
		ctrl.calmPolls = 0
	case desired < cur:
		// De-escalate one level at a time, only after exitPolls calm
		// observations (the hysteresis that prevents flapping).
		ctrl.calmPolls++
		if ctrl.calmPolls >= exitPolls {
			next = cur - 1
			ctrl.calmPolls = 0
		}
	default:
		ctrl.calmPolls = 0
	}
	if next != cur {
		ctrl.state.Store(int32(next))
		ctrl.stats.recordTransition()
	}

	// Emergency headroom: reserved while degraded under heap pressure so
	// the next cycle starts with slack; released when calm.
	engage := next >= StateBrownout && (heapFlag || occ >= brownoutHeapPct)
	if engage != ctrl.headroomOn {
		ctrl.headroomOn = engage
		if ctrl.hooks.SetHeadroom != nil {
			if engage {
				ctrl.hooks.SetHeadroom(emergencyHeadroomBytes)
			} else {
				ctrl.hooks.SetHeadroom(0)
			}
		}
	}

	// Early trigger: in Shed with heap pressure, force a cycle — once per
	// observed GC cycle, so a convoy of polls doesn't convoy the driver.
	force := ctrl.inj.ForceEmergency()
	if force || (next == StateShed && heapFlag) {
		if force || seq != ctrl.lastEmergency || !ctrl.firedOnce {
			ctrl.firedOnce = true
			ctrl.lastEmergency = seq
			if ctrl.hooks.EmergencyGC != nil {
				ctrl.hooks.EmergencyGC()
				ctrl.stats.recordEmergency()
			}
		}
	}
	return next
}

// Admit decides whether to accept a request. It returns nil to admit, or
// an *Error (wrapping ErrOverload) to shed; the decision is a pure
// function of (policy seed, request seq) given the current state, so a
// seeded run sheds a reproducible request subset. The shed decision
// happens before the request touches the heap.
func (ctrl *Controller) Admit(pri Priority, seq uint64) error {
	if ctrl == nil {
		return nil
	}
	ctrl.inj.At(faultinject.OverloadShed, seq)
	st, forced, shed := ctrl.shedDecision(pri, seq)
	if shed {
		ctrl.stats.recordShed(pri, forced)
		return &Error{State: st, Priority: pri, Seq: seq, Forced: forced}
	}
	ctrl.stats.recordAdmit()
	return nil
}

// shedDecision is the alloc-free core of Admit: the pure
// (state, forced, shed) verdict for request seq at priority pri. The
// split keeps the admit check on the request fast path provably
// allocation-free — the *Error is only materialized for the shed
// minority. The injection-point visit stays in Admit: hooks may run
// arbitrary test code.
//
//hcsgc:alloc-free
func (ctrl *Controller) shedDecision(pri Priority, seq uint64) (st State, forced, shed bool) {
	st = State(ctrl.state.Load())
	if ctrl.inj.ForceShed() {
		return st, true, true
	}
	if st == StateNormal {
		return st, false, false
	}
	th := ctrl.shedThresh[st][pri]
	return st, false, th != 0 && mix(uint64(ctrl.pol.Seed), seq) < th
}

// Report snapshots the controller's state and its stats accumulator.
func (ctrl *Controller) Report() Report {
	if ctrl == nil {
		return Report{State: StateNormal.String()}
	}
	r := ctrl.stats.Report(GoodputSLOCycles)
	r.State = State(ctrl.state.Load()).String()
	return r
}

// toThreshold converts a probability to a uint64 compare target (the
// fixed-point trick the fault injector uses).
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

// mix is splitmix64's output function over a seed/stream pair: the
// deterministic per-request shed hash.
func mix(seed, x uint64) uint64 {
	x = x*0x9e3779b97f4a7c15 + seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
