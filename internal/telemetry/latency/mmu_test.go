package latency

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
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

// utilizationBetween is readCycle's utilization over [a, b].
func utilizationBetween(m *mmuState, a, b uint64) float64 {
	_, u := m.readCycle(a, b)
	return u
}

// TestMMUUtilizationBetween: per-cycle utilization over a sub-interval.
func TestMMUUtilizationBetween(t *testing.T) {
	m := newMMUState([]uint64{100}, 2048)
	m.addStop(100, 200, 1)
	m.advance(1000)
	if got := utilizationBetween(m, 0, 1000); got != 0.9 {
		t.Errorf("utilization over [0,1000] = %v, want 0.9", got)
	}
	if got := utilizationBetween(m, 100, 200); got != 0 {
		t.Errorf("utilization over [100,200] = %v, want 0", got)
	}
	if got := utilizationBetween(m, 500, 1000); got != 1 {
		t.Errorf("utilization over [500,1000] = %v, want 1", got)
	}
	// Degenerate interval reads as fully utilized.
	if got := utilizationBetween(m, 300, 300); got != 1 {
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
	if ladder, u := m.readCycle(0, 10); ladder != nil || u != 1 {
		t.Errorf("nil readCycle = %v, %v, want no ladder and 1", ladder, u)
	}
}

// TestReadCycleAllocatesOnlyTheLadder: the per-cycle read builds W(x) in
// the buffers the last read left, with no copy of the intervals; the one
// allocation is the ladder the cycle record keeps.
func TestReadCycleAllocatesOnlyTheLadder(t *testing.T) {
	m := newMMUState([]uint64{100, 1000}, 2048)
	for i := uint64(0); i < 500; i++ {
		m.addStop(i*1000, i*1000+100, 1)
	}
	m.readCycle(0, 500_000) // sizes the buffers
	if allocs := testing.AllocsPerRun(10, func() {
		ladder, u := m.readCycle(1000, 401_000)
		if u != 0.9 || len(ladder) != 2 || ladder[1].MMU != 0.9 {
			t.Fatalf("readCycle = %v, %v, want utilization 0.9 and MMU(1000) 0.9", ladder, u)
		}
	}); allocs != 1 {
		t.Errorf("readCycle made %v host allocations, want 1 (the ladder)", allocs)
	}
}

// TestMMUAgainstBruteForce is the oracle for maxStop's exactness claim:
// overlapping weighted stops (full pauses and 1/n stalls, in random
// order) on a few thousand cycles, the last one past the interval cap so
// the oldest half is trimmed. Stop endpoints are whole cycles, so W(x) is
// linear between whole cycles and the worst window of width w starts on
// one: summing each cycle's stop weight and sliding every window across
// the retained timeline is exact too.
func TestMMUAgainstBruteForce(t *testing.T) {
	const span, maxIv = 4000, 64
	windows := []uint64{1, 7, 50, 120, 333, 1000, 1900, 10000}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 50; trial++ {
		m := newMMUState(windows, maxIv)
		// Distinct starts, so which half the trim keeps is well defined.
		starts := rng.Perm(span - 100)[:maxIv+1]
		ivs := make([]stopInterval, len(starts))
		var hi uint64
		for i, st := range starts {
			weight := 1.0
			if rng.Intn(4) != 0 {
				weight = 1.0 / float64(2+rng.Intn(7))
			}
			iv := stopInterval{uint64(st), uint64(st + 1 + rng.Intn(100)), weight}
			ivs[i] = iv
			hi = max(hi, iv.end)
			m.addStop(iv.start, iv.end, iv.weight)
		}
		m.advance(span)
		hi = max(hi, span)

		// The trim keeps the later half by start and starts the timeline
		// at the earliest start it kept.
		slices.SortFunc(ivs, func(a, b stopInterval) int { return cmp.Compare(a.start, b.start) })
		ivs = ivs[len(ivs)/2:]
		lo := ivs[0].start
		stop := make([]float64, hi) // stop weight in cycle [c, c+1)
		for _, iv := range ivs {
			for c := iv.start; c < iv.end; c++ {
				stop[c] += iv.weight
			}
		}
		prefix := make([]float64, hi+1) // W(x)
		for c := lo; c < hi; c++ {
			prefix[c+1] = prefix[c] + stop[c]
		}
		util := func(a, b uint64) float64 {
			a, b = max(a, lo), min(b, hi)
			if b <= a {
				return 1
			}
			return clamp01(1 - (prefix[b]-prefix[a])/float64(b-a))
		}

		r := m.snapshot()
		if r.SpanCycles != hi-lo || r.StopIntervals != len(ivs) {
			t.Fatalf("trial %d: span %d with %d intervals, want %d with %d",
				trial, r.SpanCycles, r.StopIntervals, hi-lo, len(ivs))
		}
		a := uint64(rng.Intn(span))
		b := a + uint64(rng.Intn(span))
		ladder, sub := m.readCycle(a, b)
		if !slices.Equal(ladder, r.Windows) {
			t.Fatalf("trial %d: readCycle ladder %v, snapshot %v", trial, ladder, r.Windows)
		}
		if want := util(a, b); math.Abs(sub-want) > 1e-9 {
			t.Errorf("trial %d: utilization over [%d,%d] = %v, brute force %v", trial, a, b, sub, want)
		}
		if want := util(lo, hi); math.Abs(r.Utilization-want) > 1e-9 {
			t.Errorf("trial %d: utilization = %v, brute force %v", trial, r.Utilization, want)
		}
		for i, w := range windows {
			want := util(lo, hi)
			if w <= hi-lo {
				worst := 0.0
				for s := lo; s+w <= hi; s++ {
					worst = max(worst, prefix[s+w]-prefix[s])
				}
				want = clamp01(1 - min(worst, float64(w))/float64(w))
			}
			if got := r.Windows[i].MMU; math.Abs(got-want) > 1e-9 {
				t.Errorf("trial %d: MMU(%d) = %v, brute force %v", trial, w, got, want)
			}
		}
	}
}
