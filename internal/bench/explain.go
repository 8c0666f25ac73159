package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/simmem"
	"hcsgc/internal/stats"
	"hcsgc/internal/telemetry/latency"
	"hcsgc/internal/workloads"
)

// ExplainSide is one configuration's aggregated measurement in an
// explanation A/B: the cache model's counts by owner, its prefetch ratios,
// the collector's segregation purity and the latency report of the same
// runs.
type ExplainSide struct {
	Config int    `json:"config"`
	Knobs  string `json:"knobs"`
	Runs   int    `json:"runs"`
	// Owners is the cache model's counts by owner (mutators, GC threads,
	// pauses), summed over the runs (workloads.Result.Owners).
	Owners hcsgc.OwnerMemStats `json:"owners"`
	// Loads, L1Misses and LLCMisses are the same runs' whole-process
	// counts, summed: the figure table's perf columns, which the owner
	// rows sum to.
	Loads     uint64 `json:"loads"`
	L1Misses  uint64 `json:"l1_misses"`
	LLCMisses uint64 `json:"llc_misses"`
	// PrefetchAccuracy and PrefetchCoverage are the cache model's prefetch
	// ratios over the runs' whole-process counts, summed
	// (simmem.CoreStats.PrefetchAccuracy, PrefetchCoverage); -1 when the
	// runs prefetched nothing.
	PrefetchAccuracy float64 `json:"prefetch_accuracy"`
	PrefetchCoverage float64 `json:"prefetch_coverage"`
	// SegPurity is the mean over runs of the segregation purity at each
	// run's last mark end (CycleRecord.SegregationPurity); 0 when no run
	// collected.
	SegPurity float64 `json:"seg_purity"`
	// MeanExecSeconds is the mean simulated execution time, for context.
	MeanExecSeconds float64 `json:"mean_exec_seconds"`
	// Report is the latency aggregate across runs (HDR slot addition,
	// worst-case MMU per window); per-run flight records are not merged
	// (each run's recorder stands alone).
	Report *hcsgc.LatencyReport `json:"report"`
}

// ExplainAB explains one configuration against another on one workload
// from one set of runs: the evidence layer behind the paper's perf-counter
// columns (the cache model's accesses, misses per level and memory cycles
// by owner, so a mutator saving is told apart from GC work; its prefetch
// accuracy and coverage ~ prefetch friendliness; segregation purity ~
// hot/cold layout quality) beside pause/phase/stall percentiles, the MMU
// window ladder and the per-path barrier profile, where LAZYRELOCATE shows
// as relocation work leaving the GC drain and reappearing as mutator
// barrier relocate hits.
type ExplainAB struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Runs       int     `json:"runs"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`

	Base ExplainSide `json:"base"`
	Test ExplainSide `json:"test"`
}

// RunExplainAB runs the experiment's workload under two configurations
// with a fresh latency tracker attached to every run, and aggregates each
// side. baseCfg/testCfg are Table 2 config ids (0 = original ZGC). A
// non-nil sink serves each in-flight run's planes live.
func RunExplainAB(expID string, runs int, scale float64, seed int64, baseCfg, testCfg int, sink *hcsgc.TelemetrySink, progress Progress) (*ExplainAB, error) {
	w, err := workloads.Get(expID)
	if err != nil {
		return nil, err
	}
	if runs <= 0 {
		runs = 3
	}
	ab := &ExplainAB{Experiment: expID, Workload: w.Name, Runs: runs, Scale: scale, Seed: seed}

	var trackers [2][]*hcsgc.LatencyTracker
	abSides := [2]*ExplainSide{&ab.Base, &ab.Test}
	cfgs := []int{baseCfg, testCfg}
	sides, err := runSides("explain "+expID, w, configSides(cfgs...), runs, scale, seed, sink, progress,
		func(side int, rc *workloads.RunConfig) func(workloads.Result) {
			// Discard automatic dumps: a bench OOM already fails the run.
			rc.Latency = hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{DumpTo: io.Discard})
			trackers[side] = append(trackers[side], rc.Latency)
			return func(r workloads.Result) {
				s := abSides[side]
				s.Owners.Mutators.Add(r.Owners.Mutators)
				s.Owners.GC.Add(r.Owners.GC)
				s.Owners.Pauses.Add(r.Owners.Pauses)
				s.Loads += r.Loads
				s.L1Misses += r.L1Misses
				s.LLCMisses += r.LLCMisses
			}
		})
	if err != nil {
		return nil, err
	}
	for i, s := range abSides {
		var purity []float64
		for _, t := range trackers[i] {
			if log := t.Log(); len(log) > 0 {
				purity = append(purity, log[len(log)-1].SegregationPurity)
			}
		}
		total := ownerTotal(s.Owners)
		s.Config, s.Knobs, s.Runs = cfgs[i], KnobsFor(cfgs[i]).String(), runs
		s.PrefetchAccuracy, s.PrefetchCoverage = total.PrefetchAccuracy(), total.PrefetchCoverage()
		s.SegPurity = stats.Mean(purity)
		s.MeanExecSeconds = stats.Mean(sides[i].Times)
		s.Report = latency.Aggregate(trackers[i])
	}
	return ab, nil
}

// ownerTotal sums the owner rows: the process total.
func ownerTotal(o hcsgc.OwnerMemStats) simmem.CoreStats {
	t := o.Mutators
	t.Add(o.GC)
	t.Add(o.Pauses)
	return t
}

// Validate sanity-checks a report's well-formedness on both sides: owner
// rows that sum to the whole-process loads, L1 misses and LLC misses,
// purity and the cache model's prefetch coverage within [0,1]; a latency
// report with pauses of every STW phase, MMU values inside [0,1] at every
// window, and at least one recorded GC cycle. Used by the CI smoke step.
func (ab *ExplainAB) Validate() error {
	check := func(name string, side *ExplainSide) error {
		if t := ownerTotal(side.Owners); t.Loads != side.Loads || t.L1Misses != side.L1Misses || t.LLCMisses != side.LLCMisses {
			return fmt.Errorf("explain: %s side owner rows sum to %d loads, %d L1 and %d LLC misses; the process counted %d, %d and %d",
				name, t.Loads, t.L1Misses, t.LLCMisses, side.Loads, side.L1Misses, side.LLCMisses)
		}
		if side.SegPurity < 0 || side.SegPurity > 1 {
			return fmt.Errorf("explain: %s side purity %v outside [0,1]", name, side.SegPurity)
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
// header: the summary metrics, the cache model's counts by owner, then
// per-phase percentiles, the MMU ladder, and the barrier profile with the
// relocation-shift headline.
func (ab *ExplainAB) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== explain A/B: %s (%s), %d runs, scale %g ===\n",
		ab.Experiment, ab.Workload, ab.Runs, ab.Scale)
	fmt.Fprintf(w, "base: cfg %d (%s)   test: cfg %d (%s)\n",
		ab.Base.Config, ab.Base.Knobs, ab.Test.Config, ab.Test.Knobs)
	fmt.Fprintf(w, "all durations in simulated cycles\n\n")

	pct := func(bv, tv float64) string {
		if bv == 0 {
			return ""
		}
		return fmt.Sprintf("%+.1f%%", 100*(tv-bv)/bv)
	}
	fmt.Fprintf(w, "%-24s %16s %16s %10s\n", "metric",
		fmt.Sprintf("cfg %d (%s)", ab.Base.Config, ab.Base.Knobs),
		fmt.Sprintf("cfg %d (%s)", ab.Test.Config, ab.Test.Knobs), "delta")
	row := func(name string, bv, tv float64, format string) {
		fmt.Fprintf(w, "%-24s %16s %16s %10s\n", name,
			fmt.Sprintf(format, bv), fmt.Sprintf(format, tv), pct(bv, tv))
	}
	row("exec seconds (mean)", ab.Base.MeanExecSeconds, ab.Test.MeanExecSeconds, "%.4f")
	row("prefetch accuracy", ab.Base.PrefetchAccuracy, ab.Test.PrefetchAccuracy, "%.4f")
	row("prefetch coverage", ab.Base.PrefetchCoverage, ab.Test.PrefetchCoverage, "%.4f")
	row("segregation purity", ab.Base.SegPurity, ab.Test.SegPurity, "%.4f")

	fmt.Fprintf(w, "\n%-22s %12s %12s %12s %12s %14s\n", "cache model by owner",
		"accesses", "L1 misses", "L2 misses", "LLC misses", "mem cycles")
	owners := func(o hcsgc.OwnerMemStats) [4]simmem.CoreStats {
		return [4]simmem.CoreStats{o.Mutators, o.GC, o.Pauses, ownerTotal(o)}
	}
	names := [4]string{"mutators", "GC threads", "pauses", "total"}
	bo, to := owners(ab.Base.Owners), owners(ab.Test.Owners)
	for _, side := range []struct {
		name string
		rows [4]simmem.CoreStats
	}{{"base", bo}, {"test", to}} {
		for i, s := range side.rows {
			fmt.Fprintf(w, "%-22s %12d %12d %12d %12d %14d\n", side.name+" "+names[i],
				s.Loads+s.Stores, s.L1Misses, s.L2Misses, s.LLCMisses, s.Cycles)
		}
	}
	for i := range names {
		b, t := bo[i], to[i]
		fmt.Fprintf(w, "%-22s %12s %12s %12s %12s %14s\n", "delta "+names[i],
			pct(float64(b.Loads+b.Stores), float64(t.Loads+t.Stores)),
			pct(float64(b.L1Misses), float64(t.L1Misses)), pct(float64(b.L2Misses), float64(t.L2Misses)),
			pct(float64(b.LLCMisses), float64(t.LLCMisses)), pct(float64(b.Cycles), float64(t.Cycles)))
	}
	fmt.Fprintln(w)

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

// WriteJSON renders the full A/B result.
func (ab *ExplainAB) WriteJSON(w io.Writer) error { return writeJSON(w, ab) }
