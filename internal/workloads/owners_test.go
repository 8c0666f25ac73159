package workloads

import (
	"testing"

	"hcsgc"
	"hcsgc/internal/simmem"
)

// TestOwnerCountsAreExact: after a fig4 run (one mutator) and a kv run (two
// server threads beside the driver) at smoke scale, the cache model's owner
// rows (mutators, GC threads, pauses) sum to the process total field by
// field, the mutator row is the sum of every mutator's own core ledger, and
// the run's Result carries the same rows. The GC and pause rows are read
// from mirrors that the GC workers' and the pause driver's goroutines
// publish, so CI runs this under -race.
func TestOwnerCountsAreExact(t *testing.T) {
	for _, tc := range []struct {
		id       string
		scale    float64
		heap     uint64 // 0 = the workload's default
		threads  int    // RunConfig.Mutators
		mutators int    // attached in all, the kv driver's included
	}{{"fig4", 0.03, 0, 1, 1}, {"kv", 0.05, 4 << 20, 2, 3}} {
		t.Run(tc.id, func(t *testing.T) {
			var rt *hcsgc.Runtime
			runtimeBuilt = func(r *hcsgc.Runtime) { rt = r }
			defer func() { runtimeBuilt = nil }()
			w, err := Get(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, w, RunConfig{
				Knobs: hcsgc.Knobs{Hotness: true, LazyRelocate: true}, Seed: 1, Scale: tc.scale, HeapMaxBytes: tc.heap,
				Mutators: tc.threads,
			})
			if res.GCCycleCount == 0 {
				t.Fatalf("%s at scale %g ran no GC cycle: the GC and pause rows would be empty", tc.id, tc.scale)
			}

			o := rt.MemStatsByOwner()
			if res.Owners != o {
				t.Errorf("Result.Owners = %+v,\nthe runtime's rows %+v", res.Owners, o)
			}
			sum := o.Mutators
			sum.Add(o.GC)
			sum.Add(o.Pauses)
			if total := rt.MemStats().CoreStats; sum != total {
				t.Errorf("mutators + GC threads + pauses = %+v,\nprocess total %+v", sum, total)
			}
			var muts simmem.CoreStats
			ms := rt.Mutators()
			if len(ms) != tc.mutators {
				t.Fatalf("%d mutators attached, want %d", len(ms), tc.mutators)
			}
			for _, m := range ms {
				muts.Add(m.Core().Stats())
			}
			if muts != o.Mutators {
				t.Errorf("mutator row %+v,\nsum of the mutators' cores %+v", o.Mutators, muts)
			}
			if o.Mutators.LLCMisses == 0 || o.GC.Loads == 0 || o.Pauses.Loads == 0 {
				t.Errorf("a row never reached the cache model: mutators %+v, GC %+v, pauses %+v", o.Mutators, o.GC, o.Pauses)
			}
		})
	}
}
