package blockedcheck_test

import (
	"testing"

	"hcsgc/internal/analysis/blockedcheck"
	"hcsgc/internal/analysis/lintkit"
)

func TestBlockedCheck(t *testing.T) {
	// Loading wrap pulls in mapp and rt; RunFixture covers propagation
	// inside a package (mapp, rt) and across one (wrap's reach into
	// mapp.CrossDrain).
	lintkit.RunFixture(t, "testdata", "wrap", blockedcheck.Analyzer)
}

func TestBlockedCheckLockHeldAcrossForeignWait(t *testing.T) {
	// facade.Close holds a mutex across drv.Driver.Stop, whose body waits
	// on a channel; facade.Attach takes that mutex with a mutator in
	// hand. Whether the lock blocks is known only module-wide, and the
	// function that takes it is in context in every view.
	lintkit.RunFixture(t, "testdata", "facade", blockedcheck.Analyzer)
}
