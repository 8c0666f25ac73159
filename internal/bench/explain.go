package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/locality"
	"hcsgc/internal/simmem"
	"hcsgc/internal/stats"
	"hcsgc/internal/telemetry/latency"
	"hcsgc/internal/workloads"
)

// ExplainSide is one configuration's aggregated measurement in an
// explanation A/B: the locality profile, the cache model's prefetch ratios
// and the latency report of the same runs.
type ExplainSide struct {
	Config int                 `json:"config"`
	Knobs  string              `json:"knobs"`
	Runs   int                 `json:"runs"`
	Stats  hcsgc.LocalityStats `json:"stats"`
	// PrefetchAccuracy and PrefetchCoverage are the cache model's prefetch
	// ratios over the runs' whole-process counts, summed
	// (simmem.CoreStats.PrefetchAccuracy, PrefetchCoverage); -1 when the
	// runs prefetched nothing.
	PrefetchAccuracy float64 `json:"prefetch_accuracy"`
	PrefetchCoverage float64 `json:"prefetch_coverage"`
	// MeanExecSeconds is the mean simulated execution time, for context.
	MeanExecSeconds float64 `json:"mean_exec_seconds"`
	// Reports holds each run's full profiler snapshot.
	Reports []*hcsgc.LocalityReport `json:"reports,omitempty"`
	// Report is the latency aggregate across runs (HDR slot addition,
	// worst-case MMU per window); per-run flight records are not merged
	// (each run's recorder stands alone).
	Report *hcsgc.LatencyReport `json:"report"`
}

// ExplainAB explains one configuration against another on one workload
// from one set of runs: the evidence layer behind the paper's perf-counter
// columns (reuse distance ~ cache pressure, the cache model's prefetch
// accuracy and coverage ~ prefetch friendliness, segregation purity ~
// hot/cold layout quality) beside
// pause/phase/stall percentiles, the MMU window ladder and the per-path
// barrier profile, where LAZYRELOCATE shows as relocation work leaving the
// GC drain and reappearing as mutator barrier relocate hits.
type ExplainAB struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Runs       int     `json:"runs"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	// SamplePeriod / BurstLen / Window echo the profiler configuration.
	SamplePeriod int `json:"sample_period"`
	BurstLen     int `json:"burst_len"`
	Window       int `json:"window"`

	Base ExplainSide `json:"base"`
	Test ExplainSide `json:"test"`
}

// RunExplainAB runs the experiment's workload under two configurations
// with a fresh locality profiler and a fresh latency tracker attached to
// every run, and aggregates each side. baseCfg/testCfg are Table 2 config
// ids (0 = original ZGC). shift is the power-of-two sampling knob
// (accesses per burst period). A non-nil sink serves each in-flight run's
// planes live.
func RunExplainAB(expID string, runs int, scale float64, seed int64, baseCfg, testCfg int, shift uint, sink *hcsgc.TelemetrySink, progress Progress) (*ExplainAB, error) {
	w, err := workloads.Get(expID)
	if err != nil {
		return nil, err
	}
	if runs <= 0 {
		runs = 3
	}
	profCfg := locality.Config{SamplePeriodShift: shift}
	ab := &ExplainAB{
		Experiment:   expID,
		Workload:     w.Name,
		Runs:         runs,
		Scale:        scale,
		Seed:         seed,
		SamplePeriod: 1 << profCfg.SamplePeriodShift,
		BurstLen:     profCfg.BurstLen(),
		Window:       locality.Window,
	}

	var reports [2][]*hcsgc.LocalityReport
	var trackers [2][]*hcsgc.LatencyTracker
	var mem [2]simmem.CoreStats
	cfgs := []int{baseCfg, testCfg}
	sides, err := runSides("explain "+expID, w, configSides(cfgs...), runs, scale, seed, sink, progress,
		func(side int, rc *workloads.RunConfig) func(workloads.Result) {
			prof := locality.New(profCfg)
			rc.Locality = prof
			// Discard automatic dumps: a bench OOM already fails the run.
			rc.Latency = hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: io.Discard})
			trackers[side] = append(trackers[side], rc.Latency)
			return func(r workloads.Result) {
				reports[side] = append(reports[side], prof.Report())
				mem[side].Add(simmem.CoreStats{PrefUseful: r.PrefUseful, L2Prefills: r.L2Prefills, L2Misses: r.L2Misses})
			}
		})
	if err != nil {
		return nil, err
	}
	for i, side := range []*ExplainSide{&ab.Base, &ab.Test} {
		*side = ExplainSide{
			Config: cfgs[i], Knobs: KnobsFor(cfgs[i]).String(), Runs: runs,
			Stats:            locality.Aggregate(reports[i]),
			PrefetchAccuracy: mem[i].PrefetchAccuracy(),
			PrefetchCoverage: mem[i].PrefetchCoverage(),
			MeanExecSeconds:  stats.Mean(sides[i].Times),
			Reports:          reports[i],
			Report:           latency.Aggregate(trackers[i]),
		}
	}
	return ab, nil
}

// Validate sanity-checks a report's well-formedness on both sides:
// sampled accesses, a non-empty reuse histogram, purity and the cache
// model's prefetch coverage within [0,1]; a latency report with pauses of every STW phase,
// MMU values inside [0,1] at every window, and at least one recorded GC
// cycle. Used by the CI smoke step.
func (ab *ExplainAB) Validate() error {
	check := func(name string, side *ExplainSide) error {
		s := &side.Stats
		if s.SampledAccesses == 0 {
			return fmt.Errorf("explain: %s side sampled no accesses", name)
		}
		var histTotal uint64
		for _, c := range s.ReuseHist {
			histTotal += c
		}
		if histTotal == 0 && s.ColdSamples == 0 {
			return fmt.Errorf("explain: %s side reuse histogram is empty", name)
		}
		if s.SegPurity < 0 || s.SegPurity > 1 {
			return fmt.Errorf("explain: %s side purity %v outside [0,1]", name, s.SegPurity)
		}
		if c := side.PrefetchCoverage; c < 0 || c > 1 {
			return fmt.Errorf("explain: %s side prefetch coverage %v outside [0,1]", name, c)
		}
		r := side.Report
		if r == nil {
			return fmt.Errorf("explain: %s side has no latency report", name)
		}
		for _, pause := range latencyPauseOrder {
			if r.Pauses[pause].Count == 0 {
				return fmt.Errorf("explain: %s side recorded no %s pauses", name, pause)
			}
		}
		for _, pt := range r.MMU.Windows {
			if pt.MMU < 0 || pt.MMU > 1 {
				return fmt.Errorf("explain: %s side MMU(%d) = %v outside [0,1]",
					name, pt.WindowCycles, pt.MMU)
			}
		}
		if r.Cycles == 0 {
			return fmt.Errorf("explain: %s side recorded no GC cycles", name)
		}
		return nil
	}
	if err := check("base", &ab.Base); err != nil {
		return err
	}
	return check("test", &ab.Test)
}

// The latency*Order lists fix the row order of the latency tables.
var (
	latencyPauseOrder   = []string{"stw1", "stw2", "stw3"}
	latencyPhaseOrder   = []string{"mark", "ec_select", "relocate"}
	latencyBarrierOrder = []string{"mark", "relocate", "remap", "hotmap_record"}
)

// WriteText renders the A/B comparison as aligned text tables under one
// header: the locality metrics and prefetch ratios, then per-phase percentiles, the MMU ladder,
// and the barrier profile with the relocation-shift headline.
func (ab *ExplainAB) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== explain A/B: %s (%s), %d runs, scale %g ===\n",
		ab.Experiment, ab.Workload, ab.Runs, ab.Scale)
	fmt.Fprintf(w, "base: cfg %d (%s)   test: cfg %d (%s)\n",
		ab.Base.Config, ab.Base.Knobs, ab.Test.Config, ab.Test.Knobs)
	fmt.Fprintf(w, "profiler: 1 burst of %d accesses per %d, reuse window %d\n",
		ab.BurstLen, ab.SamplePeriod, ab.Window)
	fmt.Fprintf(w, "all durations in simulated cycles\n\n")

	pct := func(bv, tv float64) string {
		if bv == 0 {
			return ""
		}
		return fmt.Sprintf("%+.1f%%", 100*(tv-bv)/bv)
	}
	bs, ts := &ab.Base.Stats, &ab.Test.Stats
	fmt.Fprintf(w, "%-24s %16s %16s %10s\n", "metric",
		fmt.Sprintf("cfg %d (%s)", ab.Base.Config, ab.Base.Knobs),
		fmt.Sprintf("cfg %d (%s)", ab.Test.Config, ab.Test.Knobs), "delta")
	row := func(name string, bv, tv float64, format string) {
		fmt.Fprintf(w, "%-24s %16s %16s %10s\n", name,
			fmt.Sprintf(format, bv), fmt.Sprintf(format, tv), pct(bv, tv))
	}
	row("exec seconds (mean)", ab.Base.MeanExecSeconds, ab.Test.MeanExecSeconds, "%.4f")
	row("reuse p50 (lines)", bs.ReuseP50, ts.ReuseP50, "%.0f")
	row("reuse p90 (lines)", bs.ReuseP90, ts.ReuseP90, "%.0f")
	row("reuse p99 (lines)", bs.ReuseP99, ts.ReuseP99, "%.0f")
	row("cold sample frac", bs.ColdFrac, ts.ColdFrac, "%.4f")
	row("prefetch accuracy", ab.Base.PrefetchAccuracy, ab.Test.PrefetchAccuracy, "%.4f")
	row("prefetch coverage", ab.Base.PrefetchCoverage, ab.Test.PrefetchCoverage, "%.4f")
	row("page entropy (bits)", bs.PageEntropyBits, ts.PageEntropyBits, "%.3f")
	row("same-page fraction", bs.SamePageFrac, ts.SamePageFrac, "%.4f")
	row("segregation purity", bs.SegPurity, ts.SegPurity, "%.4f")
	fmt.Fprintf(w, "\nsampled accesses: base %d, test %d\n\n",
		bs.SampledAccesses, ts.SampledAccesses)

	b, t := ab.Base.Report, ab.Test.Report
	distRow := func(name string, bd, td hcsgc.LatencyDist) {
		fmt.Fprintf(w, "%-22s %8d %9.0f %9.0f %9.0f | %8d %9.0f %9.0f %9.0f\n",
			name, bd.Count, bd.P50, bd.P99, bd.Max, td.Count, td.P50, td.P99, td.Max)
	}
	fmt.Fprintf(w, "%-22s %8s %9s %9s %9s | %8s %9s %9s %9s\n", "distribution",
		"n", "p50", "p99", "max", "n", "p50", "p99", "max")
	for _, p := range latencyPauseOrder {
		distRow("pause "+p, b.Pauses[p], t.Pauses[p])
	}
	for _, ph := range latencyPhaseOrder {
		distRow("phase "+ph, b.Phases[ph], t.Phases[ph])
	}
	distRow("alloc stall", b.Stall, t.Stall)

	fmt.Fprintf(w, "\n%-22s %12s %12s %10s\n", "MMU window", "base", "test", "delta")
	testMMU := map[uint64]float64{}
	for _, pt := range t.MMU.Windows {
		testMMU[pt.WindowCycles] = pt.MMU
	}
	for _, pt := range b.MMU.Windows {
		tv := testMMU[pt.WindowCycles]
		fmt.Fprintf(w, "%-22s %12.4f %12.4f %10s\n",
			fmt.Sprintf("MMU(%d)", pt.WindowCycles), pt.MMU, tv, pct(pt.MMU, tv))
	}
	fmt.Fprintf(w, "%-22s %12.4f %12.4f\n", "utilization", b.MMU.Utilization, t.MMU.Utilization)

	fmt.Fprintf(w, "\n%-22s %12s %12s %10s %11s\n", "barrier path",
		"base hits", "test hits", "delta", "test p99")
	for _, p := range latencyBarrierOrder {
		bp, tp := b.Barrier[p], t.Barrier[p]
		fmt.Fprintf(w, "%-22s %12d %12d %10s %11.0f\n", p, bp.Hits, tp.Hits,
			pct(float64(bp.Hits), float64(tp.Hits)), tp.Sampled.P99)
	}
	fmt.Fprintf(w, "\nrelocation shift: barrier relocate hits %d -> %d; GC drain p50 %.0f -> %.0f cycles\n",
		b.Barrier["relocate"].Hits, t.Barrier["relocate"].Hits,
		b.Phases["relocate"].P50, t.Phases["relocate"].P50)
	fmt.Fprintf(w, "exec seconds (mean): base %.4f, test %.4f; cycles: base %d, test %d; flight dumps: base %d, test %d\n",
		ab.Base.MeanExecSeconds, ab.Test.MeanExecSeconds, b.Cycles, t.Cycles, b.FlightDumps, t.FlightDumps)
}

// WriteJSON renders the full A/B result, including the per-run locality
// reports.
func (ab *ExplainAB) WriteJSON(w io.Writer) error { return writeJSON(w, ab) }
