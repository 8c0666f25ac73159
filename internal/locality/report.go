package locality

import (
	"fmt"
	"io"
)

// Stats is a derived, JSON-friendly view of one interval's (or the
// cumulative) locality measurements. Raw counters are kept alongside the
// derived ratios so downstream consumers (the bench A/B aggregator) can
// sum runs and re-derive.
type Stats struct {
	// SampledAccesses is the number of accesses fed to the trackers.
	SampledAccesses uint64 `json:"sampled_accesses"`

	// ReuseHist[i] counts reuse distances d with bits.Len64(d)==i:
	// bucket 0 is immediate reuse (d=0), bucket i>0 covers [2^(i-1), 2^i)
	// distinct lines.
	ReuseHist []uint64 `json:"reuse_hist"`
	// Reuses / ColdSamples partition sampled accesses into in-window
	// reuses and cold accesses (first touch or reuse beyond window).
	Reuses      uint64 `json:"reuses"`
	ColdSamples uint64 `json:"cold_samples"`
	// ReuseP50/P90/P99 are stack-distance percentiles over in-window
	// reuses, in distinct cache lines (bucket upper bounds); -1 when no
	// reuse was observed.
	ReuseP50 float64 `json:"reuse_p50"`
	ReuseP90 float64 `json:"reuse_p90"`
	ReuseP99 float64 `json:"reuse_p99"`
	// ColdFrac is ColdSamples over SampledAccesses.
	ColdFrac float64 `json:"cold_frac"`

	// StreamedAccesses / SeqStreamedAccesses count accesses on confirmed
	// constant-stride streams (any stride / +1-line). Coverage fractions
	// divide by SampledAccesses.
	StreamedAccesses    uint64  `json:"streamed_accesses"`
	SeqStreamedAccesses uint64  `json:"seq_streamed_accesses"`
	StreamCoverage      float64 `json:"stream_coverage"`
	SeqStreamCoverage   float64 `json:"seq_stream_coverage"`
	// MeanStreamLen is the mean confirmed-stream run length in accesses.
	MeanStreamLen float64 `json:"mean_stream_len"`

	// PageTransitions / SamePage count page switches and same-page pairs
	// between consecutive sampled accesses; PageEntropyBits is the
	// Shannon entropy of the transition distribution.
	PageTransitions uint64  `json:"page_transitions"`
	SamePage        uint64  `json:"same_page"`
	SamePageFrac    float64 `json:"same_page_frac"`
	PageEntropyBits float64 `json:"page_entropy_bits"`

	// SegPurity is the live-bytes-weighted hot/cold segregation purity of
	// hot-trackable pages at the latest mark end, in [0,1] (1 = every
	// page holds only its majority hotness class).
	SegPurity float64 `json:"seg_purity"`
}

// CycleReport is one GC cycle's interval snapshot.
type CycleReport struct {
	Cycle    uint64 `json:"cycle"`
	Interval Stats  `json:"interval"`
}

// Signals is the "locality" section of the cycle record
// (latency.CycleRecord): the part of one cycle's interval stats the signal
// plane publishes. Present is false (and the fields zero) when no profiler
// is attached.
type Signals struct {
	Present           bool    `json:"present"`
	ReuseP50          float64 `json:"reuse_p50_lines"`
	ReuseP90          float64 `json:"reuse_p90_lines"`
	StreamCoverage    float64 `json:"stream_coverage"`
	SeqStreamCoverage float64 `json:"seq_stream_coverage"`
	PageEntropyBits   float64 `json:"page_entropy_bits"`
	SegPurity         float64 `json:"seg_purity"`
}

// Report is a full profiler snapshot.
type Report struct {
	SamplePeriod int           `json:"sample_period"`
	BurstLen     int           `json:"burst_len"`
	Window       int           `json:"window"`
	Cumulative   Stats         `json:"cumulative"`
	LastCycle    CycleReport   `json:"last_cycle"`
	Cycles       []CycleReport `json:"cycles"`
}

// deriveStats converts raw counters plus the state metrics into Stats.
func deriveStats(c *counters, entropy, samePageFrac, purity float64) Stats {
	s := Stats{
		SampledAccesses:     c.Sampled,
		ReuseHist:           append([]uint64(nil), c.DistHist[:]...),
		Reuses:              c.Reuses,
		ColdSamples:         c.Cold,
		StreamedAccesses:    c.Streamed,
		SeqStreamedAccesses: c.SeqStreamed,
		PageTransitions:     c.Transitions,
		SamePage:            c.SamePage,
		SamePageFrac:        samePageFrac,
		PageEntropyBits:     entropy,
		SegPurity:           purity,
	}
	s.ReuseP50 = histPercentile(c.DistHist[:], c.Reuses, 0.50)
	s.ReuseP90 = histPercentile(c.DistHist[:], c.Reuses, 0.90)
	s.ReuseP99 = histPercentile(c.DistHist[:], c.Reuses, 0.99)
	if c.Sampled > 0 {
		s.ColdFrac = float64(c.Cold) / float64(c.Sampled)
		s.StreamCoverage = float64(c.Streamed) / float64(c.Sampled)
		s.SeqStreamCoverage = float64(c.SeqStreamed) / float64(c.Sampled)
	}
	if c.StreamsEnd > 0 {
		s.MeanStreamLen = float64(c.StreamLen) / float64(c.StreamsEnd)
	}
	return s
}

// histPercentile returns the q-quantile of the power-of-two histogram as
// the containing bucket's upper bound in lines (bucket 0 -> 0), or -1 when
// the histogram is empty.
func histPercentile(hist []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return -1
	}
	need := q * float64(total)
	var cum float64
	for i, c := range hist {
		cum += float64(c)
		if cum >= need && c > 0 {
			if i == 0 {
				return 0
			}
			return float64(uint64(1) << uint(i))
		}
	}
	return -1
}

// Aggregate merges per-run cumulative stats into one view: flow counters
// and histograms are summed and ratios re-derived; state metrics (entropy,
// same-page fraction, purity) are averaged across runs.
func Aggregate(reports []*Report) Stats {
	var c counters
	var entropy, samePage, purity float64
	n := 0
	for _, r := range reports {
		if r == nil {
			continue
		}
		s := &r.Cumulative
		c.Sampled += s.SampledAccesses
		for i := 0; i < len(s.ReuseHist) && i < distBuckets; i++ {
			c.DistHist[i] += s.ReuseHist[i]
		}
		c.Reuses += s.Reuses
		c.Cold += s.ColdSamples
		c.Streamed += s.StreamedAccesses
		c.SeqStreamed += s.SeqStreamedAccesses
		c.Transitions += s.PageTransitions
		c.SamePage += s.SamePage
		// Recover stream-length sums from the derived mean: not possible
		// without the raw StreamsEnd, so carry the mean via weighting by
		// streamed accesses instead.
		entropy += s.PageEntropyBits
		samePage += s.SamePageFrac
		purity += s.SegPurity
		n++
	}
	if n == 0 {
		return Stats{}
	}
	out := deriveStats(&c, entropy/float64(n), samePage/float64(n), purity/float64(n))
	// MeanStreamLen: average of per-run means weighted by streamed volume.
	var wsum, w float64
	for _, r := range reports {
		if r == nil {
			continue
		}
		weight := float64(r.Cumulative.StreamedAccesses)
		wsum += r.Cumulative.MeanStreamLen * weight
		w += weight
	}
	if w > 0 {
		out.MeanStreamLen = wsum / w
	}
	return out
}

// WriteText renders s as an aligned human-readable block.
func (s *Stats) WriteText(w io.Writer, indent string) {
	fmt.Fprintf(w, "%ssampled accesses     %d\n", indent, s.SampledAccesses)
	fmt.Fprintf(w, "%sreuse distance p50   %s lines\n", indent, fmtDist(s.ReuseP50))
	fmt.Fprintf(w, "%sreuse distance p90   %s lines\n", indent, fmtDist(s.ReuseP90))
	fmt.Fprintf(w, "%sreuse distance p99   %s lines\n", indent, fmtDist(s.ReuseP99))
	fmt.Fprintf(w, "%scold sample frac     %.4f\n", indent, s.ColdFrac)
	fmt.Fprintf(w, "%sstream coverage      %.4f\n", indent, s.StreamCoverage)
	fmt.Fprintf(w, "%s+1-line coverage     %.4f\n", indent, s.SeqStreamCoverage)
	fmt.Fprintf(w, "%smean stream length   %.2f\n", indent, s.MeanStreamLen)
	fmt.Fprintf(w, "%spage entropy         %.3f bits\n", indent, s.PageEntropyBits)
	fmt.Fprintf(w, "%ssame-page fraction   %.4f\n", indent, s.SamePageFrac)
	fmt.Fprintf(w, "%ssegregation purity   %.4f\n", indent, s.SegPurity)
}

func fmtDist(v float64) string {
	if v < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", v)
}
