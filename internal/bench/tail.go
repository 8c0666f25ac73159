package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/workloads"
)

// TailSide is one configuration's aggregated tail-attribution measurement:
// the KV workload's serving report plus the request-level cause breakdown,
// merged across all runs (the attributor's HDR histograms add slot-wise,
// so per-cause quantiles are exact over the union).
type TailSide struct {
	Config int    `json:"config"`
	Knobs  string `json:"knobs"`
	Runs   int    `json:"runs"`
	// Tail is the merged attribution report: violations by cause, the
	// attributed fraction, and the top-K slow-request exemplars.
	Tail hcsgc.TailReport `json:"tail"`
	// Report is the merged serving report (per-phase dists + SLO curves),
	// for the p99 context the causes explain.
	Report kvstore.Report `json:"report"`
	// MeanExecSeconds is the mean simulated execution time, for context.
	MeanExecSeconds float64 `json:"mean_exec_seconds"`
	// GCCycles counts collections across all runs.
	GCCycles int `json:"gc_cycles"`
}

// TailAB is a side-by-side tail-attribution comparison of two
// configurations on the KV server workload: the same A/B as RunKVAB, but
// every SLO-violating request is classified (stw-pause / alloc-stall /
// queued-behind-stall / service) and linked to the responsible GC cycle,
// so the report says not just that one configuration's p99 is worse but
// which GC mechanism makes it so.
type TailAB struct {
	Runs  int     `json:"runs"`
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// SLOThresholdCycles is the violation threshold both sides classify
	// against.
	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`

	Base TailSide `json:"base"`
	Test TailSide `json:"test"`
}

// RunTailAB runs the KV server workload under two configurations with
// request-level tail attribution armed, runs times each with per-run
// seeds. One attributor per side accumulates across its runs.
func RunTailAB(runs int, scale float64, seed int64, baseCfg, testCfg int, slo uint64, sink *hcsgc.TelemetrySink, progress Progress) (*TailAB, error) {
	w, err := workloads.Get("kv")
	if err != nil {
		return nil, err
	}
	if runs <= 0 {
		runs = 10 // same rationale as RunKVAB: stall convoys make single runs a coin flip
	}
	if scale <= 0 {
		scale = 1
	}
	ab := &TailAB{Runs: runs, Scale: scale, Seed: seed}

	var accs [2]*kvstore.Metrics
	var tails [2]*hcsgc.TailAttributor
	for i := range accs {
		accs[i] = kvstore.NewMetrics()
		tails[i] = hcsgc.NewTailAttributor(hcsgc.TailConfig{SLOThresholdCycles: slo})
	}
	sides, err := runSides("tail", w, []int{baseCfg, testCfg}, runs, scale, seed, sink, progress,
		func(side int, rc *workloads.RunConfig) func(workloads.Result) {
			rc.KV, rc.Tail = accs[side], tails[side]
			return nil
		})
	if err != nil {
		return nil, err
	}
	for i, side := range []*TailSide{&ab.Base, &ab.Test} {
		*side = TailSide{
			Config: sides[i].config, Knobs: sides[i].knobs, Runs: runs,
			Tail:            tails[i].Report(),
			Report:          accs[i].Report(nil),
			MeanExecSeconds: sides[i].meanExecSeconds,
			GCCycles:        sides[i].gcCycles,
		}
	}
	ab.SLOThresholdCycles = ab.Test.Tail.SLOThresholdCycles
	return ab, nil
}

// Validate checks a tail A/B report: both sides pass the serving and
// attribution structural validations, both sides observed every request
// the serving report counted, the comparison saw violations at all (a run
// with none proves nothing), and — the acceptance gate — at least 90% of
// each side's SLO-violating requests carry a concrete cause and
// responsible cycle id.
func (ab *TailAB) Validate() error {
	var violations uint64
	for _, s := range []struct {
		name string
		side *TailSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		if err := s.side.Report.Validate(); err != nil {
			return fmt.Errorf("tail: %s side: %w", s.name, err)
		}
		if err := s.side.Tail.Validate(); err != nil {
			return fmt.Errorf("tail: %s side: %w", s.name, err)
		}
		var served uint64
		for _, p := range s.side.Report.Phases {
			served += p.Dist.Count
		}
		if s.side.Tail.Requests != served {
			return fmt.Errorf("tail: %s side attributor observed %d requests, serving report counted %d",
				s.name, s.side.Tail.Requests, served)
		}
		violations += s.side.Tail.Violations
		if s.side.Tail.Violations > 0 && s.side.Tail.AttributedFraction < 0.9 {
			return fmt.Errorf("tail: %s side attributed only %.1f%% of %d violations (want >= 90%%)",
				s.name, 100*s.side.Tail.AttributedFraction, s.side.Tail.Violations)
		}
	}
	if violations == 0 {
		return fmt.Errorf("tail: no SLO violations on either side — threshold %d too high for this workload",
			ab.SLOThresholdCycles)
	}
	return nil
}

// WriteText renders the attribution comparison as aligned text: the
// headline attributed fractions, the per-config "p99 violations by cause"
// breakdown, and the slowest exemplars with their responsible cycles.
func (ab *TailAB) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== KV tail attribution A/B: %d runs, scale %g, SLO %d cycles ===\n",
		ab.Runs, ab.Scale, ab.SLOThresholdCycles)
	fmt.Fprintf(w, "base: cfg %d (%s)   test: cfg %d (%s)\n\n",
		ab.Base.Config, ab.Base.Knobs, ab.Test.Config, ab.Test.Knobs)

	for _, s := range []struct {
		name string
		side *TailSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		t := s.side.Tail
		fmt.Fprintf(w, "%s (cfg %d): %d requests, %d violations (%.3f%%), %.1f%% attributed to a concrete cause+cycle\n",
			s.name, s.side.Config, t.Requests, t.Violations,
			pct(t.Violations, t.Requests), 100*t.AttributedFraction)
		fmt.Fprintf(w, "  p99 violations by cause:\n")
		fmt.Fprintf(w, "  %-22s %9s %8s %12s %12s %12s\n", "cause", "count", "share", "p50", "p99", "max")
		for _, c := range t.ByCause {
			if c.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-22s %9d %7.1f%% %12.0f %12.0f %12.0f\n",
				c.Cause, c.Count, 100*c.Fraction, c.Dist.P50, c.Dist.P99, c.Dist.Max)
		}
		fmt.Fprintf(w, "\n")
	}

	fmt.Fprintf(w, "serving tail for context (steady p99 / p999):\n")
	bs := kvPhaseDist(ab.Base.Report, "steady")
	ts := kvPhaseDist(ab.Test.Report, "steady")
	fmt.Fprintf(w, "  base %9.0f / %9.0f   test %9.0f / %9.0f cycles\n",
		bs.P99, bs.P999, ts.P99, ts.P999)

	fmt.Fprintf(w, "\nslowest exemplars (latency, cause, responsible cycle):\n")
	for _, s := range []struct {
		name string
		side *TailSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		n := len(s.side.Tail.TopK)
		if n > 3 {
			n = 3
		}
		for _, ex := range s.side.Tail.TopK[:n] {
			fmt.Fprintf(w, "  %s seq %-8d %-6s %-8s %12d cycles  %-20s cycle %d\n",
				s.name, ex.Seq, ex.Op, ex.Phase, ex.LatencyCycles, ex.Cause, ex.Cycle)
		}
	}
	fmt.Fprintf(w, "\nexec seconds (mean): base %.4f, test %.4f; GC cycles: base %d, test %d\n",
		ab.Base.MeanExecSeconds, ab.Test.MeanExecSeconds, ab.Base.GCCycles, ab.Test.GCCycles)
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// WriteJSON renders the full tail A/B result (tail-report.json).
func (ab *TailAB) WriteJSON(w io.Writer) error { return writeJSON(w, ab) }

// Artifact: the tail A/B has no normalized benchmark artifact.
func (*TailAB) Artifact() (Artifact, bool) { return Artifact{}, false }
