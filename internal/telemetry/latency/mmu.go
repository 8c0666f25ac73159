package latency

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// The MMU tracker measures minimum mutator utilization the way the
// low-latency GC literature defines it (Cheng & Blelloch; Zhao, Blackburn
// & McKinley): over every window of width w inside the observed timeline,
// the fraction of the window the mutators were running, minimized over all
// window placements. Time here is the runtime's virtual clock in simulated
// cycles, so results are deterministic modulo scheduling, not wall-clock
// noise.
//
// Stops are weighted intervals: an STW pause stops every mutator (weight
// 1.0); an allocation stall stops one of n mutators (weight 1/n). The
// cumulative weighted-stop function W(x) is piecewise linear, so the worst
// window of width w — the placement maximizing W(t+w)-W(t) — is found
// exactly by evaluating the candidates where t or t+w aligns with an
// interval boundary.

// stopInterval is one weighted mutator-stop interval on the virtual
// timeline.
type stopInterval struct {
	start, end uint64
	weight     float64
}

// mmuState accumulates stop intervals. The interval list is bounded: past
// maxIv intervals the oldest half is dropped and the window domain
// advances past them, keeping cost amortized O(1) per add.
//
// Every read computes W(x) from the intervals under mu, into the edge and
// breakpoint buffers it keeps, so a read allocates only what it reports.
type mmuState struct {
	mu      sync.Mutex
	windows []uint64
	maxIv   int
	iv      []stopInterval
	lo, hi  uint64
	edges   []wedge
	wf      wfunc
}

func newMMUState(windows []uint64, maxIv int) *mmuState {
	return &mmuState{windows: windows, maxIv: maxIv}
}

// addStop records a weighted stop interval.
func (m *mmuState) addStop(start, end uint64, weight float64) {
	if m == nil || end <= start || weight <= 0 {
		return
	}
	m.mu.Lock()
	m.iv = append(m.iv, stopInterval{start, end, weight})
	if end > m.hi {
		m.hi = end
	}
	if len(m.iv) > m.maxIv {
		m.trimLocked()
	}
	m.mu.Unlock()
}

// advance extends the observed timeline to now (mutator-running time with
// no stops still counts toward utilization).
func (m *mmuState) advance(now uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if now > m.hi {
		m.hi = now
	}
	m.mu.Unlock()
}

// trimLocked drops the oldest half of the intervals and advances lo past
// them, so windows never span a region whose stops were forgotten.
func (m *mmuState) trimLocked() {
	slices.SortFunc(m.iv, func(a, b stopInterval) int { return cmp.Compare(a.start, b.start) })
	drop := len(m.iv) / 2
	m.iv = m.iv[:copy(m.iv, m.iv[drop:])]
	if len(m.iv) > 0 {
		if m.iv[0].start > m.lo {
			m.lo = m.iv[0].start
		}
	} else {
		m.lo = m.hi
	}
}

// wfunc is the cumulative weighted-stop function W(x) over [lo, hi],
// represented by its breakpoints: W(x) = cum[i] + slope[i]*(x-pos[i]) for
// the largest pos[i] <= x, and W(x) = 0 before pos[0].
type wfunc struct {
	pos   []uint64
	cum   []float64
	slope []float64
}

// wedge is one step of W's slope: +weight where a stop interval starts,
// -weight where it ends.
type wedge struct {
	pos uint64
	d   float64
}

// buildWFuncLocked rebuilds m.wf from the retained intervals, clipped to
// [lo, hi], reusing the buffers of the last build.
func (m *mmuState) buildWFuncLocked() {
	lo, hi := m.lo, m.hi
	edges := m.edges[:0]
	for _, s := range m.iv {
		start, end := s.start, s.end
		if start < lo {
			start = lo
		}
		if end > hi {
			end = hi
		}
		if end <= start {
			continue
		}
		edges = append(edges, wedge{start, s.weight}, wedge{end, -s.weight})
	}
	slices.SortFunc(edges, func(a, b wedge) int { return cmp.Compare(a.pos, b.pos) })
	m.edges = edges
	wf := wfunc{pos: m.wf.pos[:0], cum: m.wf.cum[:0], slope: m.wf.slope[:0]}
	var cum, slope float64
	for i := 0; i < len(edges); {
		p := edges[i].pos
		if n := len(wf.pos); n > 0 {
			cum += slope * float64(p-wf.pos[n-1])
		}
		for i < len(edges) && edges[i].pos == p {
			slope += edges[i].d
			i++
		}
		if slope < 0 { // float drift: slope is a telescoping sum of ±weight
			slope = 0
		}
		wf.pos = append(wf.pos, p)
		wf.cum = append(wf.cum, cum)
		wf.slope = append(wf.slope, slope)
	}
	m.wf = wf
}

// eval returns W(x).
func (wf wfunc) eval(x uint64) float64 {
	i := sort.Search(len(wf.pos), func(i int) bool { return wf.pos[i] > x }) - 1
	if i < 0 {
		return 0
	}
	return wf.cum[i] + wf.slope[i]*float64(x-wf.pos[i])
}

// maxStop returns the largest weighted stop time inside any window of
// width w placed within [lo, hi], clamped to w. Exact: the maximum of the
// piecewise-linear f(t) = W(t+w)-W(t) is attained where t or t+w is a
// breakpoint, or at the domain edges, all of which are candidates.
func (wf wfunc) maxStop(w, lo, hi uint64) float64 {
	tMax := hi - w
	try := func(t uint64) float64 {
		if t < lo {
			t = lo
		}
		if t > tMax {
			t = tMax
		}
		return wf.eval(t+w) - wf.eval(t)
	}
	worst := try(lo)
	if s := try(tMax); s > worst {
		worst = s
	}
	for _, p := range wf.pos {
		if s := try(p); s > worst {
			worst = s
		}
		if p >= w {
			if s := try(p - w); s > worst {
				worst = s
			}
		}
	}
	if worst > float64(w) {
		worst = float64(w)
	}
	if worst < 0 {
		worst = 0
	}
	return worst
}

// MMUPoint is one (window, MMU) sample of the MMU curve.
type MMUPoint struct {
	// WindowCycles is the window width in simulated cycles.
	WindowCycles uint64 `json:"window_cycles"`
	// MMU is the minimum mutator utilization over windows of that width,
	// in [0,1].
	MMU float64 `json:"mmu"`
}

// MMUReport is the MMU curve plus overall utilization, the /mmu endpoint
// payload.
type MMUReport struct {
	// Windows is the MMU ladder, ascending by window width.
	Windows []MMUPoint `json:"windows"`
	// SpanCycles is the observed timeline length. Windows wider than the
	// span report the whole-span utilization.
	SpanCycles uint64 `json:"span_cycles"`
	// Utilization is the mutator utilization over the whole span.
	Utilization float64 `json:"utilization"`
	// StopIntervals is the number of retained stop intervals.
	StopIntervals int `json:"stop_intervals"`
}

// snapshot computes the MMU ladder and overall utilization.
func (m *mmuState) snapshot() MMUReport {
	if m == nil {
		return MMUReport{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := MMUReport{SpanCycles: m.hi - m.lo, StopIntervals: len(m.iv)}
	r.Windows, r.Utilization = m.readLocked(m.lo, m.hi)
	return r
}

// readCycle is a cycle record's two reads: the MMU ladder and the mutator
// utilization over [a, b] of the retained timeline.
func (m *mmuState) readCycle(a, b uint64) ([]MMUPoint, float64) {
	if m == nil {
		return nil, 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readLocked(a, b)
}

// readLocked builds W(x) once and returns the MMU of every window (a
// window wider than the span reads the whole-span utilization) with the
// utilization over [a, b] clipped to the span, 1 if that is empty. The
// ladder is all it allocates.
func (m *mmuState) readLocked(a, b uint64) ([]MMUPoint, float64) {
	m.buildWFuncLocked()
	lo, hi := m.lo, m.hi
	util := func(a, b uint64) float64 {
		a, b = max(a, lo), min(b, hi)
		if b <= a {
			return 1
		}
		return clamp01(1 - (m.wf.eval(b)-m.wf.eval(a))/float64(b-a))
	}
	whole := util(lo, hi)
	ladder := make([]MMUPoint, 0, len(m.windows))
	for _, w := range m.windows {
		mmu := whole
		if w > 0 && w <= hi-lo {
			mmu = clamp01(1 - m.wf.maxStop(w, lo, hi)/float64(w))
		}
		ladder = append(ladder, MMUPoint{WindowCycles: w, MMU: mmu})
	}
	return ladder, util(a, b)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
