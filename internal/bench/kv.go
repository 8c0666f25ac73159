package bench

import (
	"fmt"
	"io"
	"math"

	"hcsgc"
	"hcsgc/internal/kvstore"
	"hcsgc/internal/loadgen"
	"hcsgc/internal/stats"
	"hcsgc/internal/workloads"
)

// KVSide is one configuration's aggregated serving measurement in a KV
// A/B comparison: every run's serving ledger merged into one, histograms
// slot-wise, so the side's quantiles are exact over the union of all runs'
// requests. Report and Tail are two sections of that one ledger, over the
// same requests.
type KVSide struct {
	Config int    `json:"config"`
	Knobs  string `json:"knobs"`
	Runs   int    `json:"runs"`
	// Tail explains Report's tail: every request past the SLO classified
	// (stw-pause / alloc-stall / queued-behind-stall / service) and linked
	// to the responsible GC cycle, plus the top-K slow-request exemplars.
	Tail kvstore.TailReport `json:"tail"`
	// Report is the merged serving report (per-phase dists + SLO curves).
	Report kvstore.Report `json:"report"`
	// MeanExecSeconds is the mean simulated execution time, for context.
	MeanExecSeconds float64 `json:"mean_exec_seconds"`
	// GCCycles counts collections across all runs.
	GCCycles int `json:"gc_cycles"`
}

// KVAB is a side-by-side serving-latency comparison of two configurations
// on the KV server workload. The default pair (3 vs 4) isolates
// LAZYRELOCATE: eager relocation concentrates cost in GC-adjacent
// windows, lazy spreads it across mutator barriers — the report shows
// which phases of traffic pay for each choice, and which GC mechanism
// makes the slow requests slow. Both are computed from the same runs: the
// concurrent collector races the server threads on the host scheduler, so
// a second A/B's explanation can disagree with the report about which side
// is worse.
type KVAB struct {
	Runs  int     `json:"runs"`
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// SLOThresholdCycles is the violation threshold both sides classify
	// against (kvstore.SLOCycles).
	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`

	Base KVSide `json:"base"`
	Test KVSide `json:"test"`
}

// RunKVAB runs the KV server workload under two configurations, runs
// times each with per-run seeds, merging every run's serving ledger into
// the side's.
func RunKVAB(runs int, scale float64, seed int64, baseCfg, testCfg int, sink *hcsgc.TelemetrySink, progress Progress) (*KVAB, error) {
	if runs <= 0 {
		// The KV tail is dominated by rare, large stall/pause convoys;
		// single runs are a coin flip over where they land. Ten runs
		// (~60ms each at default scale) aggregate enough GC events that
		// the per-phase p999 ordering is stable across invocations.
		runs = 10
	}
	if scale <= 0 {
		scale = 1 // the workload's default benchmarking scale
	}
	sides, _, err := runKVSides("kv", configSides(baseCfg, testCfg), runs, scale, seed, sink, progress)
	if err != nil {
		return nil, err
	}
	sides[0].Config, sides[1].Config = baseCfg, testCfg
	return &KVAB{Runs: runs, Scale: scale, Seed: seed,
		SLOThresholdCycles: kvstore.SLOCycles, Base: sides[0], Test: sides[1]}, nil
}

// runKVSides runs the KV server workload under each side through
// runSides, merging every side's runs into one serving ledger. It returns
// the sides, their Config left to the caller, and their ledgers.
func runKVSides(label string, sides []side, runs int, scale float64, seed int64,
	sink *hcsgc.TelemetrySink, progress Progress) ([]KVSide, []*kvstore.Metrics, error) {
	w, err := workloads.Get("kv")
	if err != nil {
		return nil, nil, err
	}
	accs := make([]*kvstore.Metrics, len(sides))
	for i := range sides {
		accs[i] = kvstore.NewMetrics()
	}
	measured, err := runSides(label, w, sides, runs, scale, seed, sink, progress,
		func(i int, rc *workloads.RunConfig) func(workloads.Result) {
			rc.KV = accs[i]
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	out := make([]KVSide, len(sides))
	for i, s := range measured {
		out[i] = KVSide{
			Knobs: sides[i].rc.Knobs.String(), Runs: runs,
			Tail:            accs[i].Tail(),
			Report:          accs[i].Report(nil),
			MeanExecSeconds: stats.Mean(s.Times),
			// The per-run mean back to the runs' total.
			GCCycles: int(math.Round(s.GCCycles * float64(runs))),
		}
	}
	return out, accs, nil
}

// validate checks what holds on any KV side: its serving and tail reports
// are well-formed. It returns the requests the serving report counted and
// the slowest of them.
func (s *KVSide) validate() (served, slowest uint64, err error) {
	if err := s.Report.Validate(); err != nil {
		return 0, 0, err
	}
	if err := s.Tail.Validate(); err != nil {
		return 0, 0, err
	}
	for _, p := range s.Report.Phases {
		served += p.Dist.Count
		slowest = max(slowest, p.Dist.Max)
	}
	return served, slowest, nil
}

// Validate is the acceptance gate of a KV A/B report. The serving half:
// both sides pass the serving report's structural validation, every phase
// recorded requests, and the two sides served identical request counts
// per phase (the schedule is open-loop and seeded, so any divergence is a
// harness bug). The attribution half: both sides pass the tail report's
// structural validation (each exemplar's cycle link included), and a side
// that has SLO violations attributes at least 90% of them to a concrete
// cause and responsible cycle id. A report with no violations passes:
// nothing past the SLO is a result.
func (ab *KVAB) Validate() error {
	for _, s := range []struct {
		name string
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		if _, _, err := s.side.validate(); err != nil {
			return fmt.Errorf("kv: %s side: %w", s.name, err)
		}
		for _, p := range s.side.Report.Phases {
			if p.Dist.Count == 0 {
				return fmt.Errorf("kv: %s side phase %q recorded no requests", s.name, p.Phase)
			}
		}
		if t := s.side.Tail; t.Violations > 0 && t.AttributedFraction < 0.9 {
			return fmt.Errorf("kv: %s side attributed only %.1f%% of %d violations (want >= 90%%)",
				s.name, 100*t.AttributedFraction, t.Violations)
		}
	}
	for i := range ab.Base.Report.Phases {
		bc := ab.Base.Report.Phases[i].Dist.Count
		tc := ab.Test.Report.Phases[i].Dist.Count
		if bc != tc {
			return fmt.Errorf("kv: phase %q request counts differ: base %d, test %d",
				ab.Base.Report.Phases[i].Phase, bc, tc)
		}
	}
	return nil
}

// WriteText renders the A/B comparison as aligned text tables: the
// per-phase latency distributions, each phase's SLO curve side by side,
// the tail-latency headline, and what explains it — per side, the SLO
// violations by cause and the slowest exemplars with their responsible
// cycles.
func (ab *KVAB) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== KV serving A/B: open-loop load, %d runs, scale %g ===\n",
		ab.Runs, ab.Scale)
	fmt.Fprintf(w, "base: cfg %d (%s)   test: cfg %d (%s)\n",
		ab.Base.Config, ab.Base.Knobs, ab.Test.Config, ab.Test.Knobs)
	fmt.Fprintf(w, "request latency in virtual cycles, enqueue to completion (open-loop arrivals)\n\n")

	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s %9s | %9s %9s %9s %9s\n", "phase",
		"n", "p50", "p99", "p999", "p9999", "p50", "p99", "p999", "p9999")
	for i := range ab.Base.Report.Phases {
		bp, tp := ab.Base.Report.Phases[i], ab.Test.Report.Phases[i]
		fmt.Fprintf(w, "%-10s %9d %9.0f %9.0f %9.0f %9.0f | %9.0f %9.0f %9.0f %9.0f\n",
			bp.Phase, bp.Dist.Count,
			bp.Dist.P50, bp.Dist.P99, bp.Dist.P999, bp.Dist.P9999,
			tp.Dist.P50, tp.Dist.P99, tp.Dist.P999, tp.Dist.P9999)
	}

	for i := range ab.Base.Report.Phases {
		bp, tp := ab.Base.Report.Phases[i], ab.Test.Report.Phases[i]
		fmt.Fprintf(w, "\nSLO curve, %s phase (fraction of requests completing within X cycles)\n", bp.Phase)
		fmt.Fprintf(w, "%-16s %10s %10s %10s\n", "threshold", "base", "test", "delta")
		for j := range bp.SLO {
			b, t := bp.SLO[j], tp.SLO[j]
			fmt.Fprintf(w, "%-16d %10.4f %10.4f %+10.4f\n",
				b.Threshold, b.Fraction, t.Fraction, t.Fraction-b.Fraction)
		}
	}

	fmt.Fprintf(w, "\ntail headline (p999 by phase):\n")
	for i := range ab.Base.Report.Phases {
		bp, tp := ab.Base.Report.Phases[i], ab.Test.Report.Phases[i]
		delta := ""
		if bp.Dist.P999 != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(tp.Dist.P999-bp.Dist.P999)/bp.Dist.P999)
		}
		fmt.Fprintf(w, "  %-8s %9.0f -> %9.0f cycles  %s\n",
			bp.Phase, bp.Dist.P999, tp.Dist.P999, delta)
	}

	fmt.Fprintf(w, "\nSLO violations by cause (SLO %d cycles), and each side's slowest requests with the responsible GC cycle:\n",
		ab.SLOThresholdCycles)
	for _, s := range []struct {
		name string
		side *KVSide
	}{{"base", &ab.Base}, {"test", &ab.Test}} {
		t := s.side.Tail
		share := 0.0
		if t.Requests > 0 {
			share = 100 * float64(t.Violations) / float64(t.Requests)
		}
		fmt.Fprintf(w, "%s (cfg %d): %d requests, %d violations (%.3f%%), %.1f%% attributed to a concrete cause+cycle\n",
			s.name, s.side.Config, t.Requests, t.Violations, share, 100*t.AttributedFraction)
		fmt.Fprintf(w, "  %-22s %9s %8s %12s %12s %12s\n", "cause", "count", "share", "p50", "p99", "max")
		for _, c := range t.ByCause {
			if c.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-22s %9d %7.1f%% %12.0f %12.0f %12.0f\n",
				c.Cause, c.Count, 100*c.Fraction, c.Dist.P50, c.Dist.P99, c.Dist.Max)
		}
		for _, ex := range t.TopK[:min(3, len(t.TopK))] {
			fmt.Fprintf(w, "  slowest: seq %-8d %-6s %-8s %12d cycles  %-20s cycle %d\n",
				ex.Seq, ex.Op, ex.Phase, ex.LatencyCycles, ex.Cause, ex.Cycle)
		}
	}
	fmt.Fprintln(w)
	b, t := ab.Base.Report, ab.Test.Report
	fmt.Fprintf(w, "ops: get %d, set %d, delete %d, scan %d; hit rate: base %.4f, test %.4f; sessions retired: %d\n",
		b.Ops[loadgen.OpGet.String()], b.Ops[loadgen.OpSet.String()],
		b.Ops[loadgen.OpDelete.String()], b.Ops[loadgen.OpScan.String()],
		hitRate(b), hitRate(t), b.SessionsRetired)
	fmt.Fprintf(w, "exec seconds (mean): base %.4f, test %.4f; GC cycles: base %d, test %d\n",
		ab.Base.MeanExecSeconds, ab.Test.MeanExecSeconds, ab.Base.GCCycles, ab.Test.GCCycles)
}

func hitRate(r kvstore.Report) float64 {
	if r.Hits+r.Misses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Hits+r.Misses)
}

// WriteJSON renders the full A/B result.
func (ab *KVAB) WriteJSON(w io.Writer) error { return writeJSON(w, ab) }
