// Package locality is a sampling profiler over the mutator access stream.
// It measures the program-locality properties the paper's evaluation
// attributes HCSGC's speedups to (§4: L1/LLC miss deltas, prefetch
// friendliness), as first-class metrics rather than raw cache counters:
//
//   - approximate reuse-distance histograms (exact Mattson stack distances
//     within a bounded sliding window, Olken's tree algorithm);
//   - stream statistics quantifying prefetch friendliness — the fraction
//     of accesses that fall on a confirmed constant-stride stream, the
//     fraction on +1-line streams, and mean stream length — using the same
//     detector parameters as simmem's hardware prefetcher model;
//   - page-transition entropy of the access sequence (how scattered the
//     working set is across pages);
//   - per-page hot/cold segregation purity, supplied by the collector at
//     each cycle boundary (heap.SegregationStats).
//
// Sampling is burst-based: of every 2^SamplePeriodShift accesses a probe
// feeds the first Config.BurstLen() to the trackers. Bursts preserve the local
// patterns (strides, page transitions) that per-access subsampling would
// destroy, while bounding overhead. A nil *Probe accepts Access calls as
// a no-op costing one predictable branch, so the disabled profiler adds
// only that branch to the barrier fast path.
//
// State is split per probe (one per mutator) so the hot path takes only an
// uncontended per-probe mutex during bursts; the Profiler aggregates all
// probes at each GC cycle boundary, attributing interval metrics to the
// cycle whose layout produced them.
package locality

import (
	"math"
	"math/bits"
	"sync"

	"hcsgc/internal/telemetry"
)

// Line/page geometry mirrored from simmem and heap (this package depends
// only on telemetry so every layer can import it).
const (
	lineShift = 6  // 64-byte cache lines
	pageShift = 21 // 2MB granule: the heap's small-page/allocation unit
)

// distBuckets is the reuse-distance histogram size: bucket i counts
// distances d with bits.Len64(d) == i, i.e. bucket 0 is d=0 (immediate
// reuse), bucket i>0 covers [2^(i-1), 2^i). 21 buckets span distances up
// to 2^20 lines (64MB of distinct data), beyond any bounded window.
const distBuckets = 21

// Config tunes the profiler. The zero value gets usable defaults.
type Config struct {
	// SamplePeriodShift is the power-of-two sampling knob: one burst is
	// profiled per 2^shift accesses. 0 profiles every access.
	SamplePeriodShift uint
}

const (
	// burstLen is the number of consecutive accesses profiled per period
	// (clamped to the period, see Config.BurstLen).
	burstLen = 256
	// Window is the reuse-distance window in profiled accesses (a power of
	// two).
	Window = 16384
	// maxTransitions bounds a probe's page-transition map; further
	// distinct transitions are pooled into one overflow bucket.
	maxTransitions = 4096
	// cycleHistory is how many per-cycle snapshots Report retains.
	cycleHistory = 64
)

// BurstLen is the number of consecutive accesses profiled per sampling
// period: burstLen, or the whole period when that is shorter.
func (c Config) BurstLen() int {
	return min(burstLen, 1<<c.SamplePeriodShift)
}

// Profiler owns the probes and the cumulative aggregates. Construct with
// New, hand to the runtime via Options.Locality, and read with Report.
type Profiler struct {
	cfg Config

	mu     sync.Mutex
	probes []*Probe
	cum    counters
	// history is the last cycleHistory per-cycle snapshots, oldest first.
	// Purity and the same-page fraction are state metrics, not flows: the
	// cumulative view takes the newest entry's.
	history []CycleReport

	// Telemetry handles (nil until BindTelemetry; all nil-safe).
	distHist     *telemetry.Histogram
	sampledTotal *telemetry.Counter
	gEntropy     *telemetry.Gauge
	rec          *telemetry.Recorder
}

// New builds a profiler. A nil *Profiler is the disabled state: NewProbe
// returns nil and OnCycle/Report are no-ops.
func New(cfg Config) *Profiler {
	return &Profiler{cfg: cfg}
}

// Config returns the configuration.
func (pf *Profiler) Config() Config { return pf.cfg }

// reuseDistBuckets are the telemetry-histogram bucket bounds matching the
// internal power-of-two histogram, in lines.
var reuseDistBuckets = telemetry.ExpBuckets(1, 2, distBuckets-1)

// BindTelemetry registers the profiler's metric series in reg and enables
// Perfetto counter-event emission through rec. The sampled-access counter
// counts from now, in a cell made here and fed at each cycle boundary from
// the drained interval, like the gauges: a profiler attached to a registry
// another one used starts it afresh. Nil-safe in every argument.
func (pf *Profiler) BindTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	if pf == nil {
		return
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.distHist = reg.Histogram("hcsgc_locality_reuse_distance_lines",
		"Sampled mutator reuse distances, in distinct cache lines (bounded-window Mattson stack distance).",
		reuseDistBuckets)
	pf.sampledTotal = reg.Adopt("hcsgc_locality_sampled_accesses_total",
		"Mutator accesses fed to the locality profiler.", new(telemetry.Counter))
	pf.gEntropy = reg.Gauge("hcsgc_locality_page_entropy_bits",
		"Shannon entropy of the sampled page-transition distribution, in bits.")
	pf.rec = rec
	// Propagate the live-fed handle to existing probes.
	for _, pr := range pf.probes {
		pr.mu.Lock()
		pr.distHist = pf.distHist
		pr.mu.Unlock()
	}
}

// NewProbe attaches a new per-mutator probe. Nil-safe: a nil profiler
// returns a nil probe, whose Access method is a one-branch no-op.
func (pf *Profiler) NewProbe() *Probe {
	if pf == nil {
		return nil
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pr := &Probe{
		mask:     uint64(1)<<pf.cfg.SamplePeriodShift - 1,
		burst:    uint64(pf.cfg.BurstLen()),
		reuse:    newReuseTracker(Window),
		trans:    make(map[uint64]uint64),
		distHist: pf.distHist,
	}
	pf.probes = append(pf.probes, pr)
	return pr
}

// counters are the flow statistics accumulated per interval and summed
// into the cumulative view. All fields are plain sums, so merging is
// addition.
type counters struct {
	Sampled  uint64
	DistHist [distBuckets]uint64
	Reuses   uint64 // sum of DistHist
	Cold     uint64

	Streamed    uint64 // accesses on a confirmed stream (any stride)
	SeqStreamed uint64 // accesses on a confirmed +1-line stream
	StreamsEnd  uint64 // confirmed streams that ended
	StreamLen   uint64 // total accesses over ended streams

	Transitions uint64 // page switches
	SamePage    uint64 // consecutive same-page pairs
}

func (a *counters) add(b *counters) {
	a.Sampled += b.Sampled
	for i := range a.DistHist {
		a.DistHist[i] += b.DistHist[i]
	}
	a.Reuses += b.Reuses
	a.Cold += b.Cold
	a.Streamed += b.Streamed
	a.SeqStreamed += b.SeqStreamed
	a.StreamsEnd += b.StreamsEnd
	a.StreamLen += b.StreamLen
	a.Transitions += b.Transitions
	a.SamePage += b.SamePage
}

// maxStreams / confirmThreshold mirror simmem/prefetch.go's hardware-like
// stream table so coverage here predicts what that prefetcher can follow.
const (
	maxStreams       = 16
	confirmThreshold = 2
)

// stream is one tracked constant-stride line stream.
type stream struct {
	lastLine int64
	stride   int64
	confid   int
	length   uint64 // accesses since confirmation
	lastUse  uint64
	valid    bool
}

// Probe is one mutator's sampling front-end. Access is called on the
// mutator's heap-access path; all other methods belong to the Profiler.
type Probe struct {
	ctr   uint64 // owner-only access counter (no lock)
	mask  uint64 // period-1
	burst uint64

	mu       sync.Mutex
	ivl      counters
	reuse    *reuseTracker
	streams  [maxStreams]stream
	sclock   uint64
	trans    map[uint64]uint64
	transOvf uint64
	lastPage uint64
	havePage bool

	distHist *telemetry.Histogram
}

// Access feeds one mutator heap access (a simulated byte address) to the
// profiler, subject to burst sampling. Nil-safe: on a nil probe this is
// one predictable branch. Must be called only by the owning mutator.
func (pr *Probe) Access(addr uint64) {
	if pr == nil {
		return
	}
	pos := pr.ctr & pr.mask
	pr.ctr++
	if pos >= pr.burst {
		return
	}
	pr.record(addr)
}

// record feeds a sampled access to the trackers.
func (pr *Probe) record(addr uint64) {
	line := addr >> lineShift
	page := addr >> pageShift
	pr.mu.Lock()
	pr.ivl.Sampled++

	// Reuse distance.
	if dist, ok := pr.reuse.observe(line); ok {
		b := bits.Len64(dist)
		if b >= distBuckets {
			b = distBuckets - 1
		}
		pr.ivl.DistHist[b]++
		pr.ivl.Reuses++
		pr.distHist.Observe(float64(dist))
	} else {
		pr.ivl.Cold++
	}

	pr.observeStream(int64(line))

	// Page transitions.
	if pr.havePage {
		if page == pr.lastPage {
			pr.ivl.SamePage++
		} else {
			pr.ivl.Transitions++
			key := pr.lastPage<<pageShift | page
			if _, ok := pr.trans[key]; ok || len(pr.trans) < maxTransitions {
				pr.trans[key]++
			} else {
				pr.transOvf++
			}
		}
	}
	pr.lastPage, pr.havePage = page, true
	pr.mu.Unlock()
}

// observeStream runs the prefetcher-equivalent stream table over the
// sampled line stream, counting covered accesses and stream lengths.
// Caller holds pr.mu.
func (pr *Probe) observeStream(ln int64) {
	pr.sclock++
	best := -1
	for i := range pr.streams {
		s := &pr.streams[i]
		if !s.valid {
			continue
		}
		delta := ln - s.lastLine
		if delta == 0 {
			s.lastUse = pr.sclock
			return
		}
		if s.confid >= confirmThreshold && delta == s.stride {
			best = i
			break
		}
		if delta >= -64 && delta <= 64 && best == -1 {
			best = i
		}
	}
	if best == -1 {
		pr.allocStream(ln)
		return
	}
	s := &pr.streams[best]
	delta := ln - s.lastLine
	if delta == s.stride {
		s.confid++
	} else {
		pr.closeStream(s)
		s.stride = delta
		s.confid = 1
	}
	s.lastLine = ln
	s.lastUse = pr.sclock
	if s.confid >= confirmThreshold {
		s.length++
		pr.ivl.Streamed++
		if s.stride == 1 {
			pr.ivl.SeqStreamed++
		}
	}
}

// closeStream retires a confirmed stream's run into the length stats.
// Caller holds pr.mu.
func (pr *Probe) closeStream(s *stream) {
	if s.length > 0 {
		pr.ivl.StreamsEnd++
		pr.ivl.StreamLen += s.length
		s.length = 0
	}
}

// allocStream claims the LRU tracker slot. Caller holds pr.mu.
func (pr *Probe) allocStream(ln int64) {
	victim := 0
	var victimUse uint64 = ^uint64(0)
	for i := range pr.streams {
		if !pr.streams[i].valid {
			victim = i
			break
		}
		if pr.streams[i].lastUse < victimUse {
			victim, victimUse = i, pr.streams[i].lastUse
		}
	}
	pr.closeStream(&pr.streams[victim])
	pr.streams[victim] = stream{lastLine: ln, stride: 1, confid: 0, lastUse: pr.sclock, valid: true}
}

// drain takes and resets the probe's interval counters and returns its
// transition-entropy inputs (the map is kept; entropy is computed over the
// running distribution, a state metric).
func (pr *Probe) drain() (ivl counters, trans map[uint64]uint64, ovf uint64) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	ivl = pr.ivl
	// Count still-open confirmed streams into the interval's length stats
	// without closing them (they continue into the next interval).
	for i := range pr.streams {
		if pr.streams[i].valid && pr.streams[i].length > 0 {
			ivl.StreamsEnd++
			ivl.StreamLen += pr.streams[i].length
		}
	}
	pr.ivl = counters{}
	return ivl, pr.trans, pr.transOvf
}

// entropyBits computes the Shannon entropy, in bits, of the transition
// counts (overflowed transitions pooled as one outcome, slightly
// underestimating true entropy).
func entropyBits(maps []map[uint64]uint64, ovfs []uint64) float64 {
	var total float64
	for _, m := range maps {
		for _, c := range m {
			total += float64(c)
		}
	}
	for _, o := range ovfs {
		total += float64(o)
	}
	if total == 0 {
		return 0
	}
	var h float64
	acc := func(c float64) {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	for _, m := range maps {
		for _, c := range m {
			acc(float64(c))
		}
	}
	for _, o := range ovfs {
		acc(float64(o))
	}
	return h
}

// OnCycle is the GC-cycle-boundary hook: the collector calls it at the end
// of cycle `seq` with the mark's segregation purity. It drains every
// probe's interval counters into a per-cycle snapshot, folds them into the
// cumulative view, publishes gauges, emits Perfetto counter events, and
// returns the interval as the cycle record's "locality" section. Nil-safe
// (the zero section, Present false).
func (pf *Profiler) OnCycle(seq uint64, purity float64) Signals {
	if pf == nil {
		return Signals{}
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()

	var ivl counters
	var maps []map[uint64]uint64
	var ovfs []uint64
	for _, pr := range pf.probes {
		c, m, o := pr.drain()
		ivl.add(&c)
		maps = append(maps, m)
		ovfs = append(ovfs, o)
	}
	pf.cum.add(&ivl)
	entropy := entropyBits(maps, ovfs)
	samePage := 0.0
	if total := float64(ivl.Transitions + ivl.SamePage); total > 0 {
		samePage = float64(ivl.SamePage) / total
	}

	cr := CycleReport{Cycle: seq, Interval: deriveStats(&ivl, entropy, samePage, purity)}
	pf.history = append(pf.history, cr)
	if len(pf.history) > cycleHistory {
		pf.history = pf.history[len(pf.history)-cycleHistory:]
	}

	pf.sampledTotal.Add(ivl.Sampled)
	pf.gEntropy.Set(entropy)

	pf.rec.Counter(telemetry.CounterStreamCoverage, cr.Interval.StreamCoverage, seq)
	pf.rec.Counter(telemetry.CounterSegPurity, purity, seq)
	pf.rec.Counter(telemetry.CounterPageEntropy, entropy, seq)
	pf.rec.Counter(telemetry.CounterReuseP50, cr.Interval.ReuseP50, seq)
	return Signals{
		Present:           true,
		ReuseP50:          cr.Interval.ReuseP50,
		ReuseP90:          cr.Interval.ReuseP90,
		StreamCoverage:    cr.Interval.StreamCoverage,
		SeqStreamCoverage: cr.Interval.SeqStreamCoverage,
		PageEntropyBits:   cr.Interval.PageEntropyBits,
		SegPurity:         cr.Interval.SegPurity,
	}
}

// Report snapshots the profiler: cumulative stats, the last cycle's
// interval, and recent per-cycle history. Nil-safe (returns nil).
func (pf *Profiler) Report() *Report {
	if pf == nil {
		return nil
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()

	// Fold not-yet-drained probe intervals into the cumulative view
	// without resetting them (Report may be called mid-cycle).
	cum := pf.cum
	var maps []map[uint64]uint64
	var ovfs []uint64
	for _, pr := range pf.probes {
		pr.mu.Lock()
		c := pr.ivl
		for i := range pr.streams {
			if pr.streams[i].valid && pr.streams[i].length > 0 {
				c.StreamsEnd++
				c.StreamLen += pr.streams[i].length
			}
		}
		maps = append(maps, cloneMap(pr.trans))
		ovfs = append(ovfs, pr.transOvf)
		pr.mu.Unlock()
		cum.add(&c)
	}
	r := &Report{
		SamplePeriod: 1 << pf.cfg.SamplePeriodShift,
		BurstLen:     pf.cfg.BurstLen(),
		Window:       Window,
		Cycles:       append([]CycleReport(nil), pf.history...),
	}
	if n := len(pf.history); n > 0 {
		r.LastCycle = pf.history[n-1]
	}
	last := r.LastCycle.Interval
	samePage := last.SamePageFrac
	if t := float64(cum.Transitions + cum.SamePage); t > 0 {
		samePage = float64(cum.SamePage) / t
	}
	r.Cumulative = deriveStats(&cum, entropyBits(maps, ovfs), samePage, last.SegPurity)
	return r
}

func cloneMap(m map[uint64]uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
