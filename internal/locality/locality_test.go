package locality

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hcsgc/internal/telemetry"
)

// naiveStack computes LRU stack distances by brute force: the distance of
// an access is the number of distinct lines touched since its previous
// access (its index in the recency list), or cold on first touch.
type naiveStack struct {
	recency []uint64
}

func (n *naiveStack) observe(line uint64) (uint64, bool) {
	for i, l := range n.recency {
		if l == line {
			copy(n.recency[1:], n.recency[:i])
			n.recency[0] = line
			return uint64(i), true
		}
	}
	n.recency = append([]uint64{line}, n.recency...)
	return 0, false
}

func TestReuseTrackerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := newReuseTracker(1 << 12) // window far larger than the trace
	naive := &naiveStack{}
	for i := 0; i < 3000; i++ {
		line := uint64(rng.Intn(64))
		gd, gok := tr.observe(line)
		wd, wok := naive.observe(line)
		if gok != wok || (gok && gd != wd) {
			t.Fatalf("access %d line %d: got (%d,%v), want (%d,%v)", i, line, gd, gok, wd, wok)
		}
	}
}

func TestReuseTrackerWindowEviction(t *testing.T) {
	tr := newReuseTracker(8)
	tr.observe(100)
	// Fill the window with 8 other lines; line 100's slot is overwritten.
	for i := uint64(0); i < 8; i++ {
		tr.observe(i)
	}
	if _, ok := tr.observe(100); ok {
		t.Fatalf("reuse beyond the window must be cold")
	}
	// An in-window reuse right after is still tracked exactly.
	if d, ok := tr.observe(7); !ok || d != 1 {
		t.Fatalf("in-window reuse: got (%d,%v), want (1,true)", d, ok)
	}
}

func TestReuseTrackerWraparound(t *testing.T) {
	// Cross the ring boundary many times with a reusing pattern and check
	// against the naive model restricted to in-window reuses: the tracker
	// evicts by access count, so a gap wider than the window is cold even
	// when the line is still in the naive recency stack.
	const window = 16
	tr := newReuseTracker(window)
	naive := &naiveStack{}
	lastPos := map[uint64]int{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		line := uint64(rng.Intn(10))
		gd, gok := tr.observe(line)
		wd, wok := naive.observe(line)
		if prev, seen := lastPos[line]; !seen || i-prev >= window {
			wok = false // outside the tracker's access window
		}
		lastPos[line] = i
		if gok != wok || (gok && gd != wd) {
			t.Fatalf("access %d: got (%d,%v), want (%d,%v)", i, gd, gok, wd, wok)
		}
	}
}

func TestPageTransitionEntropy(t *testing.T) {
	pf := New(Config{})
	pr := pf.NewProbe()
	pageA, pageB := uint64(0), uint64(1)<<pageShift
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			pr.Access(pageA)
		} else {
			pr.Access(pageB)
		}
	}
	pf.OnCycle(1)
	st := pf.Report().Cumulative
	// Two equiprobable transitions (A->B, B->A): 1 bit.
	if st.PageEntropyBits < 0.99 || st.PageEntropyBits > 1.01 {
		t.Fatalf("two-page ping-pong: entropy %.4f bits, want ~1", st.PageEntropyBits)
	}
	if st.SamePageFrac != 0 {
		t.Fatalf("ping-pong never stays on a page, same-page frac %v", st.SamePageFrac)
	}

	// A single-page loop has zero transition entropy.
	pf2 := New(Config{})
	pr2 := pf2.NewProbe()
	for i := 0; i < 1000; i++ {
		pr2.Access(uint64(i%10) * 8)
	}
	pf2.OnCycle(1)
	st2 := pf2.Report().Cumulative
	if st2.PageEntropyBits != 0 || st2.SamePageFrac != 1 {
		t.Fatalf("single page: entropy %.3f same-page %.3f, want 0 and 1",
			st2.PageEntropyBits, st2.SamePageFrac)
	}
}

func TestBurstSampling(t *testing.T) {
	pf := New(Config{SamplePeriodShift: 10})
	pr := pf.NewProbe()
	const total = 1024 * 100 // 100 full periods
	for i := 0; i < total; i++ {
		pr.Access(uint64(i) * 8)
	}
	pf.OnCycle(1)
	st := pf.Report().Cumulative
	want := uint64(burstLen * 100)
	if st.SampledAccesses != want {
		t.Fatalf("sampled %d accesses, want %d (%d per 1024)", st.SampledAccesses, want, burstLen)
	}
}

func TestDisabledProbeIsNoop(t *testing.T) {
	var pf *Profiler
	pr := pf.NewProbe() // nil
	pr.Access(42)       // must not panic
	pf.OnCycle(1)
	if r := pf.Report(); r != nil {
		t.Fatalf("nil profiler must report nil, got %+v", r)
	}
}

func TestOnCycleIntervalsAndCumulative(t *testing.T) {
	pf := New(Config{})
	pr := pf.NewProbe()
	for i := uint64(0); i < 100; i++ {
		pr.Access(i * 64)
	}
	first := pf.OnCycle(0.8)
	// Each line again: 99 distinct lines since its last touch, so every
	// reuse falls in the [64, 128) bucket.
	for i := uint64(0); i < 50; i++ {
		pr.Access(i * 64)
	}
	second := pf.OnCycle(0.9)
	if !first.Present || first.ReuseP50 != -1 || first.SegPurity != 0.8 {
		t.Fatalf("first interval (all cold): %+v", first)
	}
	if !second.Present || second.ReuseP50 != 128 || second.SegPurity != 0.9 {
		t.Fatalf("second interval (all reuses): %+v", second)
	}
	r := pf.Report()
	if r.Cumulative.SampledAccesses != 150 || r.Cumulative.Reuses != 50 {
		t.Fatalf("cumulative sampled %d, reuses %d; want 150 and 50", r.Cumulative.SampledAccesses, r.Cumulative.Reuses)
	}
	if r.Cumulative.SegPurity != 0.9 {
		t.Fatalf("cumulative purity = %v, want latest (0.9)", r.Cumulative.SegPurity)
	}
}

// TestReuseSummary: hcsgc_locality_reuse_distance_lines reads the
// profiler's own counts, the undrained interval included: count and sum
// of the reuse distances, quantiles as bucket upper bounds.
func TestReuseSummary(t *testing.T) {
	pf := New(Config{})
	reg := telemetry.NewRegistry()
	pf.BindTelemetry(reg)
	pr := pf.NewProbe()
	for i := uint64(0); i < 100; i++ {
		pr.Access(i * 64)
	}
	pf.OnCycle(1)
	// Each of 50 lines again, 99 distinct lines since its last touch.
	for i := uint64(0); i < 50; i++ {
		pr.Access(i * 64)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{
		"# TYPE hcsgc_locality_reuse_distance_lines summary",
		`hcsgc_locality_reuse_distance_lines{quantile="0.5"} 128`,
		"hcsgc_locality_reuse_distance_lines_sum 4950",
		"hcsgc_locality_reuse_distance_lines_count 50",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestAggregate(t *testing.T) {
	mk := func(n uint64) *Report {
		pf := New(Config{})
		pr := pf.NewProbe()
		for i := uint64(0); i < n; i++ {
			pr.Access((i % 32) * 64)
		}
		pf.OnCycle(0.5)
		return pf.Report()
	}
	a, b := mk(200), mk(400)
	agg := Aggregate([]*Report{a, b})
	if agg.SampledAccesses != 600 {
		t.Fatalf("aggregate sampled = %d, want 600", agg.SampledAccesses)
	}
	if agg.SegPurity != 0.5 {
		t.Fatalf("aggregate purity = %v, want 0.5", agg.SegPurity)
	}
	if agg.Reuses != a.Cumulative.Reuses+b.Cumulative.Reuses {
		t.Fatalf("aggregate reuses = %d, want %d", agg.Reuses,
			a.Cumulative.Reuses+b.Cumulative.Reuses)
	}
}

// TestConcurrentProbes hammers probes from several goroutines while the
// profiler snapshots at simulated cycle boundaries; run under -race. The
// final cumulative count must conserve every sampled access.
func TestConcurrentProbes(t *testing.T) {
	pf := New(Config{SamplePeriodShift: 9})
	const (
		goroutines = 4
		perG       = 40 * 512 // whole periods
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				pf.OnCycle(0.5)
				pf.Report()
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pr := pf.NewProbe()
			base := uint64(g) << 32
			for i := 0; i < perG; i++ {
				pr.Access(base + uint64(i)*8)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	pf.OnCycle(0.5)
	got := pf.Report().Cumulative.SampledAccesses
	want := uint64(goroutines * perG / 2) // burst 256 of period 512
	if got != want {
		t.Fatalf("cumulative sampled = %d, want %d", got, want)
	}
}

// TestProbeRecordsDuringOnCycle: a probe's transition map grows while its
// mutator records, so the cycle boundary and Report must read it under the
// probe's lock. One goroutine records page switches (a new transition on
// almost every sampled access) while another calls OnCycle and Report; run
// under -race, an unlocked read of the map is a race report.
func TestProbeRecordsDuringOnCycle(t *testing.T) {
	pf := New(Config{SamplePeriodShift: 1})
	pr := pf.NewProbe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < 20000; i++ {
			pr.Access((i * 7919 % 512) << pageShift)
		}
	}()
	for {
		select {
		case <-done:
			pf.OnCycle(1)
			if bits := pf.Report().Cumulative.PageEntropyBits; bits <= 0 {
				t.Fatalf("entropy %v bits after switching among 512 pages, want > 0", bits)
			}
			return
		default:
			pf.OnCycle(1)
			pf.Report()
		}
	}
}
