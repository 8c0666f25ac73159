package core

import (
	"math"
	"testing"

	"hcsgc/internal/heap"
	"hcsgc/internal/objmodel"
	"hcsgc/internal/simmem"
)

// TestWorkerDeltaBalance pins the worker section's imbalance coefficient:
// a worker's work is its busy memory cycles since the last boundary, or
// with the cache model off its scanned+relocated objects, and the
// coefficient is stddev/mean of the per-worker shares (0 = perfectly
// balanced). The workers' published counters are set by hand.
func TestWorkerDeltaBalance(t *testing.T) {
	collector := func(mem *simmem.Hierarchy) *Collector {
		c, err := New(heap.New(heap.Config{MaxBytes: 16 << 20}, mem), objmodel.NewRegistry(),
			Config{GCWorkers: 2, TriggerPercent: 101})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// busy has w's core hit one L1-resident line n times, L1 cycles each,
	// and publish, as a phase end does.
	busy := func(w *gcWorker, n int) {
		for range n {
			w.core.Load(0, 8)
		}
		w.core.Publish()
	}

	c := collector(simmem.MustNewHierarchy(simmem.DefaultConfig()))
	w0, w1 := c.workers[0], c.workers[1]
	busy(w0, 1) // bring the line into each L1
	busy(w1, 1)
	c.workerDelta()
	// Worker 0 did three times worker 1's work: shares {300, 100}, mean 200,
	// stddev 100 -> coefficient 0.5.
	busy(w0, 300)
	busy(w1, 100)
	w0.pub.scanned.Store(30)
	w1.pub.scanned.Store(10)
	w0.pub.steals.Store(2)
	d := c.workerDelta()
	if !d.Present || d.Workers != 2 || d.Scanned != 40 || d.Steals != 2 {
		t.Fatalf("delta = %+v", d)
	}
	if math.Abs(d.Imbalance-0.5) > 1e-12 {
		t.Fatalf("imbalance = %g, want 0.5", d.Imbalance)
	}
	// Balanced cycle: both advance equally -> 0.
	busy(w0, 200)
	busy(w1, 200)
	if d := c.workerDelta(); d.Imbalance != 0 || d.Scanned != 0 {
		t.Fatalf("balanced delta = %+v, want imbalance 0 and nothing scanned", d)
	}

	// No memory model: the fallback is scanned+relocated objects.
	c = collector(nil)
	w0, w1 = c.workers[0], c.workers[1]
	w0.pub.scanned.Store(20)
	w0.pub.relocated.Store(10)
	w1.pub.scanned.Store(10)
	d = c.workerDelta()
	// work {30, 10} -> the same 0.5.
	if d.Scanned != 30 || d.Relocated != 10 || math.Abs(d.Imbalance-0.5) > 1e-12 {
		t.Fatalf("fallback delta = %+v, want scanned 30, relocated 10, imbalance 0.5", d)
	}
}

// TestImbalanceEdgeCases: fewer than two workers or zero total work
// reads as perfectly balanced, never NaN.
func TestImbalanceEdgeCases(t *testing.T) {
	for _, work := range [][]float64{nil, {5}, {0, 0, 0}} {
		if got := imbalance(work); got != 0 {
			t.Fatalf("imbalance(%v) = %g, want 0", work, got)
		}
	}
}
