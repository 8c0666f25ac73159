package lockorder_test

import (
	"testing"

	"hcsgc/internal/analysis/lintkit"
	"hcsgc/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	// Loading xk pulls in lk; RunFixture covers lk's own findings
	// (inversions, ranks, safepoint holds) and xk's cross-package edge
	// into lk.
	lintkit.RunFixture(t, "testdata", "xk", lockorder.Analyzer)
}

func TestLockOrderContentionMutex(t *testing.T) {
	// cn swaps ranked fields to the contention.Mutex wrapper (stubbed
	// under the same import-path tail): the analyzer must keep seeing
	// acquisitions through the wrapper and keep naming locks by their
	// declaring fields.
	lintkit.RunFixture(t, "testdata", "cn", lockorder.Analyzer)
}
