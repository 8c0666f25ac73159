package allocfree_test

import (
	"testing"

	"hcsgc/internal/analysis/allocfree"
	"hcsgc/internal/analysis/lintkit"
)

func TestAllocFree(t *testing.T) {
	// Loading af pulls in dep (the cross-package boundary) and the
	// sync/atomic stub; RunFixture covers both the same-package proofs
	// and the boundary findings.
	lintkit.RunFixture(t, "testdata", "af", allocfree.Analyzer)
}

func TestAllocFreeContentionFastPath(t *testing.T) {
	// ctn mirrors the contention.Mutex lock wrapper: the annotated fast
	// path (TryLock + atomic adds + time.Now/Since + annotated recorder)
	// must prove clean, while formatting and wait buffering stay
	// findings.
	lintkit.RunFixture(t, "testdata", "ctn", allocfree.Analyzer)
}

func TestAllocFreeAssembly(t *testing.T) {
	// asm mirrors simmem's kernels: an annotated assembly function is a
	// boundary when its TEXT block makes no call (Kernel), a finding at
	// its declaration when it calls or tail-jumps out (Calls, TailCalls)
	// or has no TEXT block (Missing); an unannotated one is unprovable.
	lintkit.RunFixture(t, "testdata", "asm", allocfree.Analyzer)
}
