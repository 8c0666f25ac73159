package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/workloads"
)

// OverloadSide is one arm of the overload A/B: the KV serving workload at
// the same past-sustainable load, with overload protection armed
// (Protected) or absent, aggregated across runs.
type OverloadSide struct {
	// KVSide's Tail attributes the successful requests' SLO violations (a
	// shed request has no latency to attribute), and its Report is the
	// serving report of those requests.
	KVSide
	Protected bool `json:"protected"`
	// Overload is the merged outcome accounting: stale sheds, deadline
	// expiries, OOM failures, and the goodput/badput split with the
	// successful-request latency distribution.
	Overload kvstore.Outcomes `json:"overload"`
}

// OverloadAB is the headline robustness comparison: the same GC
// configuration serving the same schedule at a load factor past the
// sustainable point, with and without overload protection (per-request
// deadlines and the stale shed at dequeue). The protected side trades a
// visible shed rate for bounded tails and equal or better goodput; the
// unprotected side keeps every request and lets the convoy eat its p999.
//
// Unlike the throughput A/Bs there is no checksum cross-check between the
// sides: shedding requests changes which operations execute, by design.
type OverloadAB struct {
	Runs       int     `json:"runs"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Config     int     `json:"config"`
	Knobs      string  `json:"knobs"`
	LoadFactor float64 `json:"load_factor"`
	// SLOThresholdCycles is the SLO both sides account goodput and
	// violations against (kvstore.SLOCycles).
	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`
	// DeadlineCycles is the per-request deadline the protected side arms.
	DeadlineCycles uint64 `json:"deadline_cycles"`

	Unprotected OverloadSide `json:"unprotected"`
	Protected   OverloadSide `json:"protected"`
}

// RunOverloadAB runs the KV server workload at loadFactor times the
// sustainable arrival rate under one GC configuration, runs times per
// side with per-run seeds: each run index unprotected, then protected. The
// load generator's schedule is identical across sides (the deadline knob
// consumes no RNG draws), so the comparison isolates the protection. A run
// that fails (heap exhaustion must degrade per request, not abort) fails
// the comparison.
func RunOverloadAB(runs int, scale float64, seed int64, cfgID int, loadFactor float64, sink *hcsgc.TelemetrySink, progress Progress) (*OverloadAB, error) {
	if runs <= 0 {
		runs = 6 // same rationale as RunKVAB: convoy formation is bursty, single runs are a coin flip
	}
	if scale <= 0 {
		scale = 1
	}
	if loadFactor <= 0 {
		loadFactor = 2 // the acceptance point: twice the sustainable rate
	}
	arms := configSides(cfgID, cfgID)
	for i, label := range []string{"unprotected", "protected"} {
		arms[i].label = label
		arms[i].rc.LoadFactor, arms[i].rc.Overload = loadFactor, i == 1
	}
	sides, ledgers, err := runKVSides("overload", arms, runs, scale, seed, sink, progress)
	if err != nil {
		return nil, err
	}
	ab := &OverloadAB{
		Runs: runs, Scale: scale, Seed: seed, Config: cfgID,
		Knobs: sides[0].Knobs, LoadFactor: loadFactor,
		SLOThresholdCycles: kvstore.SLOCycles,
		DeadlineCycles:     workloads.DeadlineCycles,
	}
	for i, side := range []*OverloadSide{&ab.Unprotected, &ab.Protected} {
		*side = OverloadSide{KVSide: sides[i], Protected: i == 1,
			Overload: ledgers[i].Outcomes()}
		side.Config = cfgID
	}
	return ab, nil
}

// Validate is the acceptance gate for the overload comparison:
//
//   - structural validity of every per-side report;
//   - on each side, the outcome accounting and the serving report count
//     the same successful requests: successes = Σ phase counts, and the
//     success max is the largest phase max;
//   - both sides end the same number of requests (successes + failures):
//     they serve one seeded schedule, so a request neither side accounted
//     for is a lost one;
//   - the unprotected side actually melted: it saw SLO violations;
//   - the protected side actually protected: nonzero stale sheds AND
//     nonzero deadline expiries (both mechanisms exercised), fewer SLO
//     violations than the unprotected side, with at least 99% of the
//     survivors attributed to a concrete cause and cycle;
//   - the protection bought something: the protected side's
//     successful-request p999 is below the unprotected side's, and its
//     goodput is no worse.
func (ab *OverloadAB) Validate() error {
	for _, s := range []struct {
		name string
		side *OverloadSide
	}{{"unprotected", &ab.Unprotected}, {"protected", &ab.Protected}} {
		served, slowest, err := s.side.validate()
		if err == nil {
			err = s.side.Overload.Validate()
		}
		if err != nil {
			return fmt.Errorf("overload: %s side: %w", s.name, err)
		}
		if o := s.side.Overload; served != o.Successes {
			return fmt.Errorf("overload: %s side serving report counted %d requests, outcome accounting %d successes",
				s.name, served, o.Successes)
		}
		if m := s.side.Overload.Success.Max; m != float64(slowest) {
			return fmt.Errorf("overload: %s side success max %.0f != largest phase max %d",
				s.name, m, slowest)
		}
	}
	u, p := &ab.Unprotected.Overload, &ab.Protected.Overload
	if pe, ue := p.Successes+p.Failures, u.Successes+u.Failures; pe != ue {
		return fmt.Errorf("overload: protected side ended %d requests, unprotected %d — both serve one seeded schedule",
			pe, ue)
	}
	if u.Sheds != 0 {
		return fmt.Errorf("overload: unprotected side shed %d requests — protection leaked into the baseline", u.Sheds)
	}
	if ab.Unprotected.Tail.Violations == 0 {
		return fmt.Errorf("overload: unprotected side saw no SLO violations at load factor %g — not an overload",
			ab.LoadFactor)
	}
	if p.Sheds == 0 {
		return fmt.Errorf("overload: protected side shed nothing — the stale shed never engaged")
	}
	if p.DeadlineExceeded == 0 {
		return fmt.Errorf("overload: protected side had no deadline expiries — fast-fail never engaged")
	}
	if pv, uv := ab.Protected.Tail.Violations, ab.Unprotected.Tail.Violations; pv >= uv {
		return fmt.Errorf("overload: protected side has %d SLO violations, unprotected %d — protection must reduce them",
			pv, uv)
	}
	if f := ab.Protected.Tail.AttributedFraction; f < 0.99 {
		return fmt.Errorf("overload: protected side attributed only %.1f%% of its %d violations (want >= 99%%)",
			100*f, ab.Protected.Tail.Violations)
	}
	if pp, up := p.Success.P999, u.Success.P999; pp >= up {
		return fmt.Errorf("overload: protected successful-request p999 %.0f not below unprotected %.0f",
			pp, up)
	}
	if p.Goodput < u.Goodput {
		return fmt.Errorf("overload: protected goodput %d below unprotected %d — protection may not cost throughput",
			p.Goodput, u.Goodput)
	}
	return nil
}

// WriteText renders the comparison as aligned text: the goodput headline,
// the outcome breakdown per side, and the successful-request tails the
// protection bounded.
func (ab *OverloadAB) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== KV overload A/B: %d runs, scale %g, load factor %g, cfg %d (%s) ===\n",
		ab.Runs, ab.Scale, ab.LoadFactor, ab.Config, ab.Knobs)
	fmt.Fprintf(w, "SLO %d cycles, per-request deadline %d cycles\n\n",
		ab.SLOThresholdCycles, ab.DeadlineCycles)

	fmt.Fprintf(w, "%-28s %15s %15s\n", "", "unprotected", "protected")
	rows := []struct {
		name string
		fn   func(*OverloadSide) string
	}{
		{"goodput (within-SLO ok)", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Goodput) }},
		{"goodput / Mcycle", func(s *OverloadSide) string { return fmt.Sprintf("%.2f", s.Overload.GoodputPerMcycle) }},
		{"badput (late + failed)", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Badput) }},
		{"successes", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Successes) }},
		{"sheds (stale at dequeue)", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Sheds) }},
		{"shed rate", func(s *OverloadSide) string { return fmt.Sprintf("%.3f", s.Overload.ShedRate) }},
		{"deadline expiries", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.DeadlineExceeded) }},
		{"OOM failures", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.OOMFailures) }},
		{"failures", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Overload.Failures) }},
		{"success p50", func(s *OverloadSide) string { return fmt.Sprintf("%.0f", s.Overload.Success.P50) }},
		{"success p99", func(s *OverloadSide) string { return fmt.Sprintf("%.0f", s.Overload.Success.P99) }},
		{"success p999", func(s *OverloadSide) string { return fmt.Sprintf("%.0f", s.Overload.Success.P999) }},
		{"success max", func(s *OverloadSide) string { return fmt.Sprintf("%.0f", s.Overload.Success.Max) }},
		{"SLO violations", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.Tail.Violations) }},
		{"violations attributed", func(s *OverloadSide) string {
			return fmt.Sprintf("%.1f%%", 100*s.Tail.AttributedFraction)
		}},
		{"GC cycles", func(s *OverloadSide) string { return fmt.Sprintf("%d", s.GCCycles) }},
		{"exec seconds (mean)", func(s *OverloadSide) string { return fmt.Sprintf("%.4f", s.MeanExecSeconds) }},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %15s %15s\n", r.name, r.fn(&ab.Unprotected), r.fn(&ab.Protected))
	}

	fmt.Fprintf(w, "\nviolation causes (protected side):\n")
	for _, c := range ab.Protected.Tail.ByCause {
		if c.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-22s %9d (%5.1f%%)\n", c.Cause, c.Count, 100*c.Fraction)
	}
}

// WriteJSON renders the full overload A/B result (overload-report.json).
func (ab *OverloadAB) WriteJSON(w io.Writer) error { return writeJSON(w, ab) }
