package heap

// SegregationStats quantifies how well hot and cold objects are separated
// onto distinct pages after a mark: for each hot-trackable (small) page
// the majority bytes are max(hot, cold); purity is the live-bytes-weighted
// fraction of bytes matching their page's majority hotness. 1.0 means every page holds only hot or only cold objects; a
// well-mixed heap sits near 0.5 under a ~50% hot ratio.
type SegregationStats struct {
	// Pages is the number of hot-trackable pages with live data counted.
	Pages int
	// LiveBytes / HotBytes are summed over the counted pages.
	LiveBytes uint64
	HotBytes  uint64
	// MajorityBytes is the sum over pages of max(hot, cold) bytes.
	MajorityBytes uint64
}

// Purity returns MajorityBytes over LiveBytes, or 1 when nothing is live
// (an empty heap is trivially segregated).
func (s SegregationStats) Purity() float64 {
	if s.LiveBytes == 0 {
		return 1
	}
	return float64(s.MajorityBytes) / float64(s.LiveBytes)
}

// Add counts p if it is a live small page with live data; pages of other
// classes carry no hotness (§3.4). Call after a mark, while its livemap
// and hotmap are populated.
func (s *SegregationStats) Add(p *Page) {
	if p.Freed() || p.Class() != ClassSmall {
		return
	}
	live := p.LiveBytes()
	if live == 0 {
		return
	}
	hot, cold := p.HotBytes(), p.ColdBytes()
	s.Pages++
	s.LiveBytes += live
	s.HotBytes += hot
	s.MajorityBytes += max(hot, cold)
}

// SegregationStats computes hot/cold segregation purity over live small
// pages with Seq <= maxSeq (pass ^uint64(0) for all pages). Call
// after a mark while livemap/hotmap are populated; mid-mark values are
// partial but safe.
func (h *Heap) SegregationStats(maxSeq uint64) SegregationStats {
	var s SegregationStats
	h.LivePages(func(p *Page) {
		if p.Seq <= maxSeq {
			s.Add(p)
		}
	})
	return s
}
