package main

import (
	"testing"

	"hcsgc/internal/bench"
	"hcsgc/internal/workloads"
)

// The benchmark's independent syn-hot checksum must agree with what the
// workload computes through the runtime, collector running, for several
// seeds and a scale where the size floors do not bind as well as one where
// they do.
func TestSynOracleMatchesWorkload(t *testing.T) {
	w, err := workloads.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed  int64
		scale float64
	}{{1, 0.01}, {2, 0.01}, {7, 0.0004}} {
		res, err := w.Run(workloads.RunConfig{Knobs: bench.KnobsFor(16), Seed: tc.seed, Scale: tc.scale})
		if err != nil {
			t.Fatal(err)
		}
		check, ops := synOracle(tc.seed, tc.scale)
		if res.Check != check || res.Ops != ops {
			t.Errorf("seed %d scale %v: workload check %d ops %d, oracle check %d ops %d",
				tc.seed, tc.scale, res.Check, res.Ops, check, ops)
		}
	}
}
