package latency

import (
	"math/rand"
	"testing"
)

// mmuOf extracts one window's MMU from a report.
func mmuOf(r MMUReport, w uint64) float64 {
	for _, pt := range r.Windows {
		if pt.WindowCycles == w {
			return pt.MMU
		}
	}
	return -1
}

// TestMMUSinglePause: one full-stop pause of 100 cycles in a 10k span.
// Every window that fits the span sees exactly that pause as its worst
// case.
func TestMMUSinglePause(t *testing.T) {
	m := newMMUState([]uint64{100, 1000, 10000}, 2048)
	m.addStop(1000, 1100, 1)
	m.advance(10000)
	r := m.snapshot()
	if r.SpanCycles != 10000 {
		t.Fatalf("span = %d", r.SpanCycles)
	}
	// A 100-cycle window can sit fully inside the pause: MMU(100) = 0.
	if got := mmuOf(r, 100); got != 0 {
		t.Errorf("MMU(100) = %v, want 0", got)
	}
	if got, want := mmuOf(r, 1000), 1-100.0/1000; got != want {
		t.Errorf("MMU(1000) = %v, want %v", got, want)
	}
	if got, want := mmuOf(r, 10000), 1-100.0/10000; got != want {
		t.Errorf("MMU(10000) = %v, want %v", got, want)
	}
	if want := 1 - 100.0/10000; r.Utilization != want {
		t.Errorf("utilization = %v, want %v", r.Utilization, want)
	}
}

// TestMMUWeightedStall: a stall stopping half the mutators costs half a
// pause's utilization.
func TestMMUWeightedStall(t *testing.T) {
	m := newMMUState([]uint64{100}, 2048)
	m.addStop(500, 600, 0.5)
	m.advance(1000)
	if got := mmuOf(m.snapshot(), 100); got != 0.5 {
		t.Fatalf("MMU(100) = %v, want 0.5 (weight-0.5 stall fills the window)", got)
	}
}

// TestMMUWiderThanSpan: windows wider than the observed span report the
// whole-span utilization.
func TestMMUWiderThanSpan(t *testing.T) {
	m := newMMUState([]uint64{100000}, 2048)
	m.addStop(0, 50, 1)
	m.advance(1000)
	r := m.snapshot()
	if got := mmuOf(r, 100000); got != r.Utilization {
		t.Fatalf("MMU(100000) = %v, want whole-span utilization %v", got, r.Utilization)
	}
}

// TestMMUMonotoneInWindow is the satellite property test: MMU(w) is
// non-increasing as w shrinks — any window of width w is contained in one
// of width kw, so a narrower window can only see a denser worst case.
// Randomized stop schedules, seeded; spans always exceed the widest window
// so no ladder entry falls back to whole-span utilization.
func TestMMUMonotoneInWindow(t *testing.T) {
	windows := []uint64{1000, 5000, 20000, 100000}
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 50; trial++ {
		m := newMMUState(windows, 4096)
		const span = 300000
		for i := 0; i < 60; i++ {
			start := uint64(rng.Intn(span - 2000))
			length := uint64(1 + rng.Intn(2000))
			weight := 1.0
			if rng.Intn(2) == 0 {
				weight = 1.0 / float64(1+rng.Intn(8))
			}
			m.addStop(start, start+length, weight)
		}
		m.advance(span)
		r := m.snapshot()
		if r.SpanCycles != span {
			t.Fatalf("trial %d: span = %d", trial, r.SpanCycles)
		}
		for i := 1; i < len(windows); i++ {
			narrow, wide := mmuOf(r, windows[i-1]), mmuOf(r, windows[i])
			// Tolerate only float accumulation noise, not real inversions.
			if narrow > wide+1e-9 {
				t.Fatalf("trial %d: MMU(%d)=%v > MMU(%d)=%v — monotonicity violated",
					trial, windows[i-1], narrow, windows[i], wide)
			}
		}
		for _, pt := range r.Windows {
			if pt.MMU < 0 || pt.MMU > 1 {
				t.Fatalf("trial %d: MMU(%d) = %v outside [0,1]", trial, pt.WindowCycles, pt.MMU)
			}
		}
	}
}

// TestMMUTrim: past MaxIntervals the oldest half is dropped and the domain
// advances, so windows never span forgotten stops.
func TestMMUTrim(t *testing.T) {
	m := newMMUState([]uint64{100}, 8)
	for i := 0; i < 40; i++ {
		start := uint64(i * 1000)
		m.addStop(start, start+10, 1)
	}
	m.mu.Lock()
	n, lo := len(m.iv), m.lo
	m.mu.Unlock()
	if n > 8 {
		t.Fatalf("retained %d intervals, cap 8", n)
	}
	if lo == 0 {
		t.Fatal("lo never advanced past dropped intervals")
	}
	r := m.snapshot()
	if r.StopIntervals != n {
		t.Fatalf("report retains %d, state has %d", r.StopIntervals, n)
	}
	// The retained region still computes a sane MMU.
	if got := mmuOf(r, 100); got < 0 || got > 1 {
		t.Fatalf("post-trim MMU = %v", got)
	}
}

// TestMMUUtilizationBetween: per-cycle utilization over a sub-interval.
func TestMMUUtilizationBetween(t *testing.T) {
	m := newMMUState([]uint64{100}, 2048)
	m.addStop(100, 200, 1)
	m.advance(1000)
	if got := m.utilizationBetween(0, 1000); got != 0.9 {
		t.Errorf("utilizationBetween(0,1000) = %v, want 0.9", got)
	}
	if got := m.utilizationBetween(100, 200); got != 0 {
		t.Errorf("utilizationBetween(100,200) = %v, want 0", got)
	}
	if got := m.utilizationBetween(500, 1000); got != 1 {
		t.Errorf("utilizationBetween(500,1000) = %v, want 1", got)
	}
	// Degenerate interval reads as fully utilized.
	if got := m.utilizationBetween(300, 300); got != 1 {
		t.Errorf("empty interval utilization = %v", got)
	}
}

// TestMMUNilSafe: nil state is inert.
func TestMMUNilSafe(t *testing.T) {
	var m *mmuState
	m.addStop(0, 10, 1)
	m.advance(100)
	if r := m.snapshot(); r.SpanCycles != 0 {
		t.Error("nil snapshot must be zero")
	}
	if u := m.utilizationBetween(0, 10); u != 1 {
		t.Errorf("nil utilization = %v, want 1", u)
	}
}

// TestUtilizationBetweenAllocatesNothing: the per-cycle utilization read
// builds W(x) in the buffers the last read left, with no copy of the
// intervals.
func TestUtilizationBetweenAllocatesNothing(t *testing.T) {
	m := newMMUState([]uint64{100, 1000}, 2048)
	for i := uint64(0); i < 500; i++ {
		m.addStop(i*1000, i*1000+100, 1)
	}
	m.utilizationBetween(0, 500_000) // sizes the buffers
	if allocs := testing.AllocsPerRun(10, func() {
		if u := m.utilizationBetween(1000, 401_000); u != 0.9 {
			t.Fatalf("utilizationBetween = %v, want 0.9", u)
		}
	}); allocs != 0 {
		t.Errorf("utilizationBetween made %v host allocations, want 0", allocs)
	}
}
