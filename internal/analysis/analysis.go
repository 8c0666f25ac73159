// Package analysis aggregates the hcsgc-lint invariant checkers. Each
// sub-package holds one analyzer; this package is the single registry the
// driver (cmd/hcsgc-lint) and the regression tests share, so a new
// analyzer added to All is automatically wired into CI and the mutant
// guards.
//
// The checkers and the invariants they machine-check:
//
//	barriercheck   — raw heap word access only on GC threads or in the
//	                 barrier implementation (//hcsgc:gc-thread,
//	                 //hcsgc:barrier-impl)
//	colorsafe      — reference color-bit arithmetic stays in heap/ref.go
//	atomicword     — no mixed atomic/plain access to the same field
//	stwonly        — //hcsgc:stw-only functions only run inside a pause
//	telemetrynames — hcsgc_* metric naming and single registration
//	faultpoints    — every fault injection point is wired (module-wide)
//	allocfree      — //hcsgc:alloc-free fast paths proven free of
//	                 Go-runtime allocations
//	blockedcheck   — blocking waits reachable from attached-mutator
//	                 context are wrapped in Mutator.Blocked()
//	lockorder      — lock acquisitions consistently ordered
//	                 (//hcsgc:lock-order), none held across a safepoint
//	vtimepure      — deterministic-replay packages stay off the wall
//	                 clock and unordered map iteration (//hcsgc:wall-clock)
package analysis

import (
	"hcsgc/internal/analysis/allocfree"
	"hcsgc/internal/analysis/atomicword"
	"hcsgc/internal/analysis/barriercheck"
	"hcsgc/internal/analysis/blockedcheck"
	"hcsgc/internal/analysis/colorsafe"
	"hcsgc/internal/analysis/faultpoints"
	"hcsgc/internal/analysis/lintkit"
	"hcsgc/internal/analysis/lockorder"
	"hcsgc/internal/analysis/stwonly"
	"hcsgc/internal/analysis/telemetrynames"
	"hcsgc/internal/analysis/vtimepure"
)

// All returns the full analyzer suite, sorted by name.
func All() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		allocfree.Analyzer,
		atomicword.Analyzer,
		barriercheck.Analyzer,
		blockedcheck.Analyzer,
		colorsafe.Analyzer,
		faultpoints.Analyzer,
		lockorder.Analyzer,
		stwonly.Analyzer,
		telemetrynames.Analyzer,
		vtimepure.Analyzer,
	}
}
