package heap

import (
	"fmt"
	"sync"

	"hcsgc/internal/telemetry"
)

// The verifier's invariant checks. Each violation is attributed to one of
// these; the telemetry counter hcsgc_verify_violations_total carries the
// check name as a label.
const (
	// CheckStaleRef: a marked object holds a non-null ref whose color is
	// not the cycle's good color after mark termination.
	CheckStaleRef = "stale-ref"
	// CheckUnmarkedRef: a marked object points at an object the mark
	// declared dead (or at unmapped address space).
	CheckUnmarkedRef = "unmarked-ref"
	// CheckForwardDest: a forwarding-table entry points outside a live
	// destination page.
	CheckForwardDest = "forward-dest"
	// CheckHotmapSubset: a page has a hot bit set on a word the livemap
	// did not mark (hotness must be a subset of liveness).
	CheckHotmapSubset = "hotmap-subset"
	// CheckAccounting: Σ live-page sizes diverged from the heap's
	// usedBytes budget.
	CheckAccounting = "accounting"
	// CheckObjectBounds: a marked object's header implies it spans past
	// its page (and therefore a granule boundary).
	CheckObjectBounds = "object-bounds"
)

// VerifyChecks lists every check name, for eager telemetry registration
// and report layouts.
var VerifyChecks = []string{
	CheckStaleRef, CheckUnmarkedRef, CheckForwardDest,
	CheckHotmapSubset, CheckAccounting, CheckObjectBounds,
}

// Violation is one invariant failure with enough context to locate it:
// which check, at which phase boundary, on which page, at which address.
type Violation struct {
	Check     string
	Phase     string
	PageStart uint64
	Addr      uint64
	Detail    string
}

// String renders the violation for logs and chaos-soak artifacts.
func (v Violation) String() string {
	return fmt.Sprintf("%s@%s page=%#x addr=%#x: %s", v.Check, v.Phase, v.PageStart, v.Addr, v.Detail)
}

// maxViolationDetails bounds the retained Violation records; counts keep
// accumulating past the bound so a violation storm cannot balloon memory.
const maxViolationDetails = 64

// Verifier collects invariant violations from the STW heap walks the
// collector runs at phase boundaries. It deliberately records instead of
// panicking: a chaos soak wants to finish the run, count what broke, and
// print a reproducer seed — and production telemetry wants a counter, not
// a crash. Methods are safe for concurrent use, though the collector only
// drives it under STW.
type Verifier struct {
	mu         sync.Mutex
	total      uint64
	violations []Violation
	perPage    map[uint64]uint64
	// runs and perCheck (one cell per VerifyChecks name from the start) are
	// written under mu and are the cells /metrics serves once bound.
	runs     telemetry.Counter
	perCheck map[string]*telemetry.Counter
}

// NewVerifier returns an empty verifier ready to attach via
// Heap.SetVerifier.
func NewVerifier() *Verifier {
	v := &Verifier{
		perPage:  make(map[uint64]uint64),
		perCheck: make(map[string]*telemetry.Counter, len(VerifyChecks)),
	}
	for _, check := range VerifyChecks {
		v.perCheck[check] = new(telemetry.Counter)
	}
	return v
}

// BindTelemetry has reg serve the hcsgc_verify_* metric families from this
// verifier's own counts.
func (v *Verifier) BindTelemetry(reg *telemetry.Registry) {
	if v == nil || reg == nil {
		return
	}
	reg.Adopt("hcsgc_verify_runs_total",
		"STW heap verifier passes completed.", &v.runs)
	for _, check := range VerifyChecks {
		reg.Adopt("hcsgc_verify_violations_total",
			"Heap invariant violations found by the STW verifier.", v.perCheck[check], "check", check)
	}
}

// BeginRun counts one verifier pass (one phase boundary).
func (v *Verifier) BeginRun() {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.runs.Inc()
	v.mu.Unlock()
}

// Report records one violation.
func (v *Verifier) Report(check, phase string, pageStart, addr uint64, detail string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.total++
	v.perCheck[check].Inc() // check is one of VerifyChecks
	if pageStart != 0 {
		v.perPage[pageStart]++
	}
	if len(v.violations) < maxViolationDetails {
		v.violations = append(v.violations, Violation{
			Check: check, Phase: phase, PageStart: pageStart, Addr: addr, Detail: detail,
		})
	}
	v.mu.Unlock()
}

// Runs returns the number of verifier passes.
func (v *Verifier) Runs() uint64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.runs.Value()
}

// Total returns the number of violations recorded (including those past
// the detail-retention bound).
func (v *Verifier) Total() uint64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.total
}

// Counts returns the pass and violation totals in one consistent
// snapshot — the latency flight recorder reads both at every cycle
// boundary, and two separate locked reads could tear across a concurrent
// Report.
func (v *Verifier) Counts() (runs, violations uint64) {
	if v == nil {
		return 0, 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.runs.Value(), v.total
}

// Violations returns a copy of the retained violation records (at most
// maxViolationDetails; Total counts all of them).
func (v *Verifier) Violations() []Violation {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]Violation, len(v.violations))
	copy(out, v.violations)
	return out
}

// PageViolations returns the violation count attributed to the page
// starting at pageStart; the heap map renderer flags such pages.
func (v *Verifier) PageViolations(pageStart uint64) uint64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.perPage[pageStart]
}

// ByCheck snapshots the violation counts per check name.
func (v *Verifier) ByCheck() map[string]uint64 {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]uint64, len(v.perCheck))
	for k, n := range v.perCheck {
		if n.Value() > 0 {
			out[k] = n.Value()
		}
	}
	return out
}
