package bench

import (
	"fmt"
	"io"
	"strings"

	"hcsgc/internal/stats"
)

// WriteReport renders an experiment result as text, following the plot
// layout of §4.2: execution time (raw + mean/CI + normalised), cache
// statistics (normalised vs ZGC), GC statistics, and the Config 0 heap
// usage series.
func WriteReport(w io.Writer, r *Result) {
	fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(r.Spec.ID), r.Spec.Title)
	fmt.Fprintf(w, "workload: %s | runs/config: %d | scale: %g | seed: %d\n\n",
		r.Workload, r.Spec.Runs, r.Scale, r.Spec.Seed)

	if len(r.Spec.ScoreMetrics) > 0 {
		writeScoreReport(w, r)
	} else {
		writeTimeReport(w, r)
	}

	fmt.Fprintf(w, "\nGC statistics:\n")
	fmt.Fprintf(w, "%-8s %10s %14s %14s %12s\n", "config", "gc-cycles", "med-EC-small", "mut-reloc", "gc-reloc")
	for _, cr := range r.PerConfig {
		fmt.Fprintf(w, "%-8s %10.1f %14.1f %14.0f %12.0f\n",
			ConfigLabel(cr.Config), cr.GCCycles, cr.MedianECSmall, cr.MutatorReloc, cr.GCReloc)
	}

	if len(r.HeapSeries) > 0 {
		fmt.Fprintf(w, "\nheap usage over time (Config 0, %% of max heap):\n")
		for _, s := range r.HeapSeries {
			bar := strings.Repeat("#", int(s.UsedPct/2))
			fmt.Fprintf(w, "  t=%8.3fs %5.1f%% %s\n", s.Seconds, s.UsedPct, bar)
		}
	}
	fmt.Fprintln(w)
}

func writeTimeReport(w io.Writer, r *Result) {
	fmt.Fprintf(w, "execution time (simulated seconds):\n")
	fmt.Fprintf(w, "%-8s %9s %9s %9s %21s %8s %5s | %9s %9s %9s\n",
		"config", "median", "Q1", "Q3", "mean [95% CI]", "vsZGC", "sig", "loads", "L1miss", "LLCmiss")
	for _, cr := range r.PerConfig {
		sig := ""
		if cr.Config != 0 && r.Significant(cr.Config) {
			sig = "*"
		}
		fmt.Fprintf(w, "%-8s %9.4f %9.4f %9.4f %7.4f [%7.4f,%7.4f] %8s %5s | %8s%% %8s%% %8s%%\n",
			ConfigLabel(cr.Config),
			cr.Box.Median, cr.Box.Q1, cr.Box.Q3,
			cr.Boot.Mean, cr.Boot.CILow, cr.Boot.CIHigh,
			stats.FormatPercent(cr.TimeVsBaseline), sig,
			trimPct(cr.LoadsVsBase), trimPct(cr.L1VsBase), trimPct(cr.LLCVsBase))
	}
	fmt.Fprintf(w, "(vsZGC: negative = speedup; * = 95%% CIs disjoint from Config 0;\n")
	fmt.Fprintf(w, " loads/L1miss/LLCmiss are whole-process deltas vs Config 0, as with perf)\n")
}

func writeScoreReport(w io.Writer, r *Result) {
	for _, metric := range r.Spec.ScoreMetrics {
		fmt.Fprintf(w, "%s (higher is better):\n", metric)
		fmt.Fprintf(w, "%-8s %25s %10s\n", "config", "mean [95% CI]", "vsZGC")
		var baseMean float64
		if base := r.Baseline(); base != nil {
			baseMean = base.ScoreBoots[metric].Mean
		}
		for _, cr := range r.PerConfig {
			b := cr.ScoreBoots[metric]
			fmt.Fprintf(w, "%-8s %8.1f [%8.1f,%8.1f] %10s\n",
				ConfigLabel(cr.Config), b.Mean, b.CILow, b.CIHigh,
				stats.FormatPercent(stats.NormalizedDelta(b.Mean, baseMean)))
		}
		fmt.Fprintln(w)
	}
}

func trimPct(frac float64) string {
	return fmt.Sprintf("%+.1f", frac*100)
}

// WriteCSV emits a machine-readable form of the per-config table.
func WriteCSV(w io.Writer, r *Result) {
	fmt.Fprintf(w, "experiment,config,mean_s,ci_low,ci_high,median_s,vs_zgc,loads,l1_misses,llc_misses,gc_cycles,median_ec_small,mut_reloc,gc_reloc\n")
	for _, cr := range r.PerConfig {
		fmt.Fprintf(w, "%s,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g\n",
			r.Spec.ID, cr.Config,
			cr.Boot.Mean, cr.Boot.CILow, cr.Boot.CIHigh, cr.Box.Median, cr.TimeVsBaseline,
			cr.Loads, cr.L1Misses, cr.LLCMisses,
			cr.GCCycles, cr.MedianECSmall, cr.MutatorReloc, cr.GCReloc)
	}
}
