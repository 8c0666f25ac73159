package stwonly_test

import (
	"testing"

	"hcsgc/internal/analysis/lintkit"
	"hcsgc/internal/analysis/stwonly"
)

func TestSTWOnly(t *testing.T) {
	// Loading b pulls in a; RunFixture analyzes both, so this covers a's
	// internal call sites and b's cross-package calls into a.
	lintkit.RunFixture(t, "testdata", "b", stwonly.Analyzer)
}
