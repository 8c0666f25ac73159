// Package locality is a sampling profiler over the mutator access stream.
// It measures the program-locality properties behind the L1/LLC miss
// deltas the paper's evaluation attributes HCSGC's speedups to (§4), as
// first-class metrics rather than raw cache counters:
//
//   - approximate reuse-distance histograms (exact Mattson stack distances
//     within a bounded sliding window, Olken's tree algorithm);
//   - page-transition entropy of the access sequence (how scattered the
//     working set is across pages);
//   - per-page hot/cold segregation purity, supplied by the collector at
//     each cycle boundary (heap.SegregationStats).
//
// Prefetch friendliness is not measured here: the cache model counts the
// prefetches its own prefetcher made useful (simmem.CoreStats.PrefUseful).
//
// Sampling is burst-based: of every 2^SamplePeriodShift accesses a probe
// feeds the first Config.BurstLen() to the trackers. Bursts preserve the local
// patterns (short reuses, page transitions) that per-access subsampling would
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
	// purity is the latest cycle's segregation purity: a state metric, not
	// a flow, so the cumulative view takes the newest.
	purity float64

	// sampledTotal is nil until BindTelemetry (nil-safe).
	sampledTotal *telemetry.Counter
}

// New builds a profiler. A nil *Profiler is the disabled state: NewProbe
// returns nil and OnCycle/Report are no-ops.
func New(cfg Config) *Profiler {
	return &Profiler{cfg: cfg}
}

// Config returns the configuration.
func (pf *Profiler) Config() Config { return pf.cfg }

// BindTelemetry registers the profiler's metric series in reg: the reuse
// distances as a summary read live from the profiler's own counts, and the
// sampled-access counter, which counts from now in a cell made here and fed
// at each cycle boundary from the drained interval: a profiler attached to
// a registry another one used starts it afresh. The per-cycle values are
// the cycle record's locality section, which the latency tracker
// publishes. Nil-safe in every argument.
func (pf *Profiler) BindTelemetry(reg *telemetry.Registry) {
	if pf == nil {
		return
	}
	reg.Summary("hcsgc_locality_reuse_distance_lines",
		"Sampled mutator reuse distances, in distinct cache lines (bounded-window Mattson stack distance).",
		reuseSummary{pf})
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.sampledTotal = reg.Adopt("hcsgc_locality_sampled_accesses_total",
		"Mutator accesses fed to the locality profiler.", new(telemetry.Counter))
}

// reuseSummary serves the reuse-distance summary from the power-of-two
// counts, the live intervals included; a quantile is its bucket's upper
// bound, as in the reports.
type reuseSummary struct{ pf *Profiler }

func (s reuseSummary) Quantile(q float64) float64 {
	c := s.pf.live()
	return max(0, histPercentile(c.DistHist[:], c.Reuses, q))
}

func (s reuseSummary) Count() uint64 { return s.pf.live().Reuses }

func (s reuseSummary) Sum() float64 { return float64(s.pf.live().DistSum) }

// NewProbe attaches a new per-mutator probe. Nil-safe: a nil profiler
// returns a nil probe, whose Access method is a one-branch no-op.
func (pf *Profiler) NewProbe() *Probe {
	if pf == nil {
		return nil
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pr := &Probe{
		mask:  uint64(1)<<pf.cfg.SamplePeriodShift - 1,
		burst: uint64(pf.cfg.BurstLen()),
		reuse: newReuseTracker(Window),
		trans: make(map[uint64]uint64),
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
	DistSum  uint64 // sum of the distances DistHist counts
	Cold     uint64

	Transitions uint64 // page switches
	SamePage    uint64 // consecutive same-page pairs
}

func (a *counters) add(b *counters) {
	a.Sampled += b.Sampled
	for i := range a.DistHist {
		a.DistHist[i] += b.DistHist[i]
	}
	a.Reuses += b.Reuses
	a.DistSum += b.DistSum
	a.Cold += b.Cold
	a.Transitions += b.Transitions
	a.SamePage += b.SamePage
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
	trans    map[uint64]uint64
	transOvf uint64
	lastPage uint64
	havePage bool
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
		pr.ivl.DistSum += dist
	} else {
		pr.ivl.Cold++
	}

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

// drain takes and resets the probe's interval counters.
func (pr *Probe) drain() counters {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	ivl := pr.ivl
	pr.ivl = counters{}
	return ivl
}

// transitions gathers every probe's transition-entropy inputs, each under
// its probe's lock (the owning mutator keeps recording into the map): the
// count of each distinct page transition, and per probe its overflowed
// transitions pooled as one outcome. Entropy is computed over the running
// distribution, a state metric, so the maps are kept. Caller holds pf.mu.
func (pf *Profiler) transitions() []uint64 {
	var counts []uint64
	for _, pr := range pf.probes {
		pr.mu.Lock()
		for _, c := range pr.trans {
			counts = append(counts, c)
		}
		counts = append(counts, pr.transOvf)
		pr.mu.Unlock()
	}
	return counts
}

// entropyBits computes the Shannon entropy, in bits, of the outcome counts
// (pooling overflowed transitions as one outcome slightly underestimates
// the true entropy).
func entropyBits(counts []uint64) float64 {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

// OnCycle is the GC-cycle-boundary hook: the collector calls it at the end
// of a cycle with the mark's segregation purity. It drains every probe's
// interval counters, folds them into the cumulative view, and returns the
// interval as the cycle record's "locality" section, which is where each
// cycle's interval is kept. Nil-safe (the zero section, Present false).
func (pf *Profiler) OnCycle(purity float64) Signals {
	if pf == nil {
		return Signals{}
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()

	var ivl counters
	for _, pr := range pf.probes {
		c := pr.drain()
		ivl.add(&c)
	}
	pf.cum.add(&ivl)
	pf.purity = purity
	sig := Signals{
		Present:         true,
		ReuseP50:        histPercentile(ivl.DistHist[:], ivl.Reuses, 0.50),
		ReuseP90:        histPercentile(ivl.DistHist[:], ivl.Reuses, 0.90),
		PageEntropyBits: entropyBits(pf.transitions()),
		SegPurity:       purity,
	}

	pf.sampledTotal.Add(ivl.Sampled)
	return sig
}

// Report snapshots the profiler's cumulative stats; each cycle's interval
// is in its cycle record. Nil-safe (returns nil).
func (pf *Profiler) Report() *Report {
	if pf == nil {
		return nil
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()

	cum := pf.liveLocked()
	r := &Report{
		SamplePeriod: 1 << pf.cfg.SamplePeriodShift,
		BurstLen:     pf.cfg.BurstLen(),
		Window:       Window,
	}
	samePage := 0.0
	if t := float64(cum.Transitions + cum.SamePage); t > 0 {
		samePage = float64(cum.SamePage) / t
	}
	r.Cumulative = deriveStats(&cum, entropyBits(pf.transitions()), samePage, pf.purity)
	return r
}

// live is the cumulative view with the probes' not-yet-drained intervals
// folded in, without resetting them (it is read mid-cycle).
func (pf *Profiler) live() counters {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.liveLocked()
}

// liveLocked is live for a caller that holds pf.mu.
func (pf *Profiler) liveLocked() counters {
	cum := pf.cum
	for _, pr := range pf.probes {
		pr.mu.Lock()
		c := pr.ivl
		pr.mu.Unlock()
		cum.add(&c)
	}
	return cum
}
