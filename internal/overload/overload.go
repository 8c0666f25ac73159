// Package overload is the serving path's overload protection: it turns
// heap-pressure collapse (every request queueing into an allocation-stall
// convoy, or a structured OOM aborting the run) into per-request failures
// that leave the rest of the traffic inside its SLO.
//
// Protection is two checks the KV serving loop (internal/workloads) makes
// with the constants below; this package holds those constants and the
// outcome accounting (Stats):
//
//   - Deadline fast-fail. Requests carry a virtual-cycle deadline,
//     DeadlineCycles after arrival. A request still queued past it is
//     dropped at dequeue, and a served one has it armed as its allocation
//     budget (core.Mutator.SetAllocBudget), so a would-be convoy seat
//     unwinds promptly as ErrDeadlineExceeded instead of stalling through
//     the global retry budget.
//
//   - Stale shedding. A request whose queueing delay has already consumed
//     its GoodputSLOCycles budget is dropped at dequeue: serving it could
//     only produce badput and push every request behind it further past
//     its own budget.
//
// The KV tail under overload is the collector's to explain; nothing here
// reads the signal plane or steers the collector.
//
// A nil *Stats accepts every call as a no-op costing one predictable
// branch — the same discipline as the telemetry, locality, and
// fault-injection planes.
package overload

// What the serving harness reads: the request budget and the goodput SLO.
const (
	// DeadlineCycles is the per-request virtual-cycle budget propagated
	// from the load generator and armed as the allocation budget.
	DeadlineCycles = 2_000_000
	// MaxStallsPerRequest bounds the allocation stalls one request may
	// absorb before failing fast.
	MaxStallsPerRequest = 2
	// GoodputSLOCycles is the latency bound under which a successful
	// request counts as goodput, and the budget the stale shed enforces.
	GoodputSLOCycles = 1_000_000
)
