package core

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is the sentinel for allocation failure after the stall
// budget is exhausted; match with errors.Is. The concrete error in the
// chain is an *OutOfMemoryError carrying the occupancy snapshot.
var ErrOutOfMemory = errors.New("core: out of memory")

// OutOfMemoryError reports an allocation that stalled through its full
// retry budget without the GC reclaiming enough space. It replaces the old
// panic("core: out of memory") so heap exhaustion degrades gracefully:
// callers unwind with errors.Is(err, ErrOutOfMemory) and decide policy
// themselves. It also unwraps to the final commit failure (heap.ErrHeapFull
// with occupancy context), so errors.Is works against both sentinels.
type OutOfMemoryError struct {
	// Size is the requested allocation in bytes.
	Size uint64
	// Attempts is the number of allocation attempts made (stalls + 1).
	Attempts int
	// StalledCycles is the virtual time this allocation spent stalled, net
	// of STW pauses: what it added to Mutator.StallVirtualCycles.
	StalledCycles uint64
	// UsedBytes/MaxBytes snapshot heap occupancy at the moment of failure.
	UsedBytes, MaxBytes uint64
	// Cause is the last commit failure observed.
	Cause error
}

func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("core: out of memory: %d-byte allocation failed after %d attempts (%d virtual cycles stalled): heap %d/%d bytes (%.1f%%)",
		e.Size, e.Attempts, e.StalledCycles, e.UsedBytes, e.MaxBytes,
		100*float64(e.UsedBytes)/float64(e.MaxBytes))
}

// Unwrap exposes both the ErrOutOfMemory sentinel and the underlying
// commit failure to errors.Is/As.
func (e *OutOfMemoryError) Unwrap() []error {
	if e.Cause == nil {
		return []error{ErrOutOfMemory}
	}
	return []error{ErrOutOfMemory, e.Cause}
}

// ErrDeadlineExceeded is the sentinel for an allocation abandoned because
// the caller-supplied per-request budget (virtual-cycle deadline or stall
// bound, see Mutator.SetAllocBudget) ran out; match with errors.Is. The
// concrete error in the chain is a *DeadlineExceededError. Unlike
// ErrOutOfMemory this is not a heap-exhaustion verdict: it means the
// request chose to fail fast instead of taking a seat in a stall convoy.
var ErrDeadlineExceeded = errors.New("core: allocation deadline exceeded")

// DeadlineExceededError reports an allocation aborted by the per-request
// budget armed via Mutator.SetAllocBudget. It fires either before the
// first heap touch (the pre-flight check in allocWords) or between stall
// iterations, so an expired request never performs another heap
// allocation after the decision point.
type DeadlineExceededError struct {
	// Size is the requested allocation in bytes.
	Size uint64
	// DeadlineV is the absolute virtual-cycle deadline that was armed.
	DeadlineV uint64
	// NowV is the mutator's virtual-cycle clock when the budget check
	// fired.
	NowV uint64
	// Stalls is the number of allocation stalls this budget absorbed
	// before giving up (0 when the pre-flight check fired).
	Stalls int
	// Forced marks a fault-injector-forced expiry (chaos/testing).
	Forced bool
}

func (e *DeadlineExceededError) Error() string {
	if e.Forced {
		return fmt.Sprintf("core: allocation deadline exceeded (injector-forced): %d-byte allocation, %d stalls", e.Size, e.Stalls)
	}
	return fmt.Sprintf("core: allocation deadline exceeded: %d-byte allocation at vcycle %d past deadline %d (%d stalls)",
		e.Size, e.NowV, e.DeadlineV, e.Stalls)
}

// Unwrap exposes the ErrDeadlineExceeded sentinel to errors.Is.
func (e *DeadlineExceededError) Unwrap() error { return ErrDeadlineExceeded }
