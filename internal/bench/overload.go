package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/overload"
	"hcsgc/internal/workloads"
)

// OverloadSide is one arm of the overload A/B: the KV serving workload at
// the same past-sustainable load, with overload protection armed
// (Protected) or absent (Unprotected), aggregated across runs.
type OverloadSide struct {
	Protected bool `json:"protected"`
	Runs      int  `json:"runs"`
	// Overload is the merged outcome accounting: stale sheds, deadline
	// expiries, OOM failures, and the goodput/badput split with the
	// successful-request latency distribution.
	Overload hcsgc.OverloadReport `json:"overload"`
	// Tail is the merged request-level attribution of this side's SLO
	// violations (successful requests only — a shed request has no
	// latency to attribute).
	Tail hcsgc.TailReport `json:"tail"`
	// Report is the merged serving report for the successful requests.
	Report kvstore.Report `json:"report"`
	// MeanExecSeconds is the mean simulated execution time, for context.
	MeanExecSeconds float64 `json:"mean_exec_seconds"`
	// GCCycles counts collections across all runs.
	GCCycles int `json:"gc_cycles"`
	// OOMAborts counts runs abandoned by heap exhaustion. The protected
	// side must always be 0; the unprotected side should be too (OOM
	// degrades to per-request failures there as well), and any abort is
	// surfaced rather than silently dropped from the aggregate.
	OOMAborts int `json:"oom_aborts"`
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
	// SLOThresholdCycles is the goodput SLO both sides account against
	// (and the tail attributor's violation threshold).
	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`
	// DeadlineCycles is the per-request deadline the protected side arms.
	DeadlineCycles uint64 `json:"deadline_cycles"`

	Unprotected OverloadSide `json:"unprotected"`
	Protected   OverloadSide `json:"protected"`
}

// RunOverloadAB runs the KV server workload at loadFactor times the
// sustainable arrival rate under one GC configuration, runs times per
// side with per-run seeds: once unprotected, once protected. The load
// generator's schedule is identical across sides (the deadline knob
// consumes no RNG draws), so the comparison isolates the protection.
func RunOverloadAB(runs int, scale float64, seed int64, cfgID int, loadFactor float64, sink *hcsgc.TelemetrySink, progress Progress) (*OverloadAB, error) {
	w, err := workloads.Get("kv")
	if err != nil {
		return nil, err
	}
	if runs <= 0 {
		runs = 6 // same rationale as RunKVAB: convoy formation is bursty, single runs are a coin flip
	}
	if scale <= 0 {
		scale = 1
	}
	if loadFactor <= 0 {
		loadFactor = 2 // the acceptance point: twice the sustainable rate
	}
	knobs := KnobsFor(cfgID)
	ab := &OverloadAB{
		Runs: runs, Scale: scale, Seed: seed, Config: cfgID,
		Knobs: knobs.String(), LoadFactor: loadFactor,
		SLOThresholdCycles: overload.GoodputSLOCycles,
		DeadlineCycles:     overload.DeadlineCycles,
	}

	runSide := func(protected bool) (OverloadSide, error) {
		side := OverloadSide{Protected: protected, Runs: runs}
		acc := kvstore.NewMetrics()
		ost := overload.NewStats()
		tail := hcsgc.NewTailAttributor(hcsgc.TailConfig{SLOThresholdCycles: overload.GoodputSLOCycles})
		name := "unprotected"
		if protected {
			name = "protected"
		}
		var exec float64
		var finished int
		for run := 0; run < runs; run++ {
			cfg := workloads.RunConfig{
				Knobs:         knobs,
				Seed:          seed + int64(run),
				Scale:         scale,
				LoadFactor:    loadFactor,
				KV:            acc,
				Overload:      protected,
				OverloadStats: ost,
				Tail:          tail,
				Telemetry:     sink,
			}
			out, err := w.Run(cfg)
			if err != nil {
				// Heap exhaustion abandons the run (the guard path); count
				// it rather than fail the whole comparison — the validator
				// decides whether aborts disqualify the result.
				side.OOMAborts++
				progress.printf("overload %-11s run %d/%d ABORTED: %v", name, run+1, runs, err)
				continue
			}
			finished++
			exec += out.ExecSeconds
			side.GCCycles += out.GCCycleCount
			progress.printf("overload %-11s run %d/%d", name, run+1, runs)
		}
		if finished > 0 {
			side.MeanExecSeconds = exec / float64(finished)
		}
		side.Report = acc.Report(nil)
		side.Overload = ost.Report(overload.GoodputSLOCycles)
		side.Tail = tail.Report()
		return side, nil
	}

	if ab.Unprotected, err = runSide(false); err != nil {
		return nil, err
	}
	if ab.Protected, err = runSide(true); err != nil {
		return nil, err
	}
	return ab, nil
}

// Validate is the acceptance gate for the overload comparison:
//
//   - structural validity of every per-side report, and no OOM-aborted
//     runs on either side (heap exhaustion must degrade, not abort);
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
		if err := s.side.Report.Validate(); err != nil {
			return fmt.Errorf("overload: %s side serving report: %w", s.name, err)
		}
		if err := s.side.Overload.Validate(); err != nil {
			return fmt.Errorf("overload: %s side: %w", s.name, err)
		}
		if err := s.side.Tail.Validate(); err != nil {
			return fmt.Errorf("overload: %s side tail report: %w", s.name, err)
		}
		if s.side.OOMAborts > 0 {
			return fmt.Errorf("overload: %s side had %d OOM-aborted runs — exhaustion must degrade to shedding, not abort",
				s.name, s.side.OOMAborts)
		}
		if s.side.Tail.Requests != s.side.Overload.Successes {
			return fmt.Errorf("overload: %s side attributor observed %d requests, outcome accounting counted %d successes",
				s.name, s.side.Tail.Requests, s.side.Overload.Successes)
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
