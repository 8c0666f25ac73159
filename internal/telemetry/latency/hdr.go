package latency

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Hist is a mergeable log-linear ("HDR") histogram over uint64 samples in
// simulated cycles. Values below 2^subBits land in exact unit slots; above
// that each power-of-two range is divided into halfSub linear sub-slots,
// bounding the relative quantile error at 1/halfSub (~3.1%) across the
// full uint64 range with a fixed 1920-slot layout.
//
// All recording is lock-free (one atomic add per sample plus a CAS-max),
// so barrier slow paths and STW pauses can feed the same instance. A nil
// *Hist accepts every call as a no-op costing one predictable branch.
//
// Because two histograms with identical layouts merge by element-wise
// slot addition, a merged histogram reports exactly the quantiles of a
// single histogram fed the union of the samples — the property the bench
// A/B aggregation and its test rely on.
type Hist struct {
	counts [numSlots]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// Slot geometry: subBits sets the precision (halfSub linear sub-slots per
// power-of-two range); values < 2^subBits are exact.
const (
	subBits  = 6
	subCount = 1 << subBits // exact unit slots
	halfSub  = subCount / 2 // linear sub-slots per log range
	numSlots = subCount + (64-subBits)*halfSub
)

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

// slotIndex maps a value to its slot.
func slotIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := uint(bits.Len64(v)) - subBits
	return subCount + (int(shift)-1)*halfSub + int(v>>shift) - halfSub
}

// slotUpper is the inclusive upper bound of slot i (for i < subCount it is
// the exact value).
func slotUpper(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	g := i - subCount
	shift := uint(g/halfSub) + 1
	sub := uint64(g%halfSub) + halfSub
	return ((sub + 1) << shift) - 1
}

// Record adds one sample. Barrier slow paths and the contention plane's
// lock wait accounting call this from allocation-free code, so it must
// stay pure atomics.
//
//hcsgc:alloc-free
func (h *Hist) Record(v uint64) {
	if h == nil {
		return
	}
	h.counts[slotIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of recorded samples (as a float64, per the
// telemetry.QuantileSource contract).
func (h *Hist) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum.Load())
}

// Max returns the largest recorded sample, exactly.
func (h *Hist) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean of recorded samples.
func (h *Hist) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of the
// slot holding the sample of that rank, clamped to the exact maximum.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return float64(h.max.Load())
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < numSlots; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			upper := slotUpper(i)
			if m := h.max.Load(); upper > m {
				return float64(m)
			}
			return float64(upper)
		}
	}
	return float64(h.max.Load())
}

// FractionLE returns the fraction of recorded samples whose slot upper
// bound is <= v — the empirical CDF at v, resolved at slot granularity
// (the same <=1/halfSub relative error as quantiles). The KV SLO curve
// ("fraction of requests under X cycles") is built from this. An empty
// histogram reports 0; a nil one likewise.
func (h *Hist) FractionLE(v uint64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	var cum uint64
	for i := 0; i < numSlots; i++ {
		if slotUpper(i) > v {
			break
		}
		cum += h.counts[i].Load()
	}
	return float64(cum) / float64(total)
}

// Reset empties h. It is not atomic: only h's owner, with no Record in
// flight, may call it (an owner-private histogram folding into a shared
// one merges, then resets).
//
//hcsgc:alloc-free
func (h *Hist) Reset() {
	if h == nil {
		return
	}
	*h = Hist{}
}

// Merge folds o's samples into h. Slot layouts are fixed, so this is
// element-wise addition; quantiles of the result match a histogram fed
// both sample streams.
//
//hcsgc:alloc-free
func (h *Hist) Merge(o *Hist) {
	if h == nil || o == nil {
		return
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for {
		old := h.max.Load()
		m := o.max.Load()
		if m <= old || h.max.CompareAndSwap(old, m) {
			return
		}
	}
}
