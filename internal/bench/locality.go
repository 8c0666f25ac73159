package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/locality"
	"hcsgc/internal/workloads"
)

// LocalitySide is one configuration's aggregated locality measurement in
// an A/B comparison.
type LocalitySide struct {
	Config int                 `json:"config"`
	Knobs  string              `json:"knobs"`
	Runs   int                 `json:"runs"`
	Stats  hcsgc.LocalityStats `json:"stats"`
	// MeanExecSeconds is the mean simulated execution time, for context.
	MeanExecSeconds float64 `json:"mean_exec_seconds"`
	// Reports holds each run's full profiler snapshot.
	Reports []*hcsgc.LocalityReport `json:"reports,omitempty"`
}

// LocalityAB is a side-by-side locality comparison of two configurations
// on one workload (the evidence layer behind the paper's perf-counter
// columns: reuse distance ~ cache pressure, stream coverage ~ prefetch
// friendliness, segregation purity ~ hot/cold layout quality).
type LocalityAB struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Runs       int     `json:"runs"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	// SamplePeriod / BurstLen / Window echo the profiler configuration.
	SamplePeriod int `json:"sample_period"`
	BurstLen     int `json:"burst_len"`
	Window       int `json:"window"`

	Base LocalitySide `json:"base"`
	Test LocalitySide `json:"test"`
}

// RunLocalityAB runs the experiment's workload under two configurations
// with a fresh locality profiler per run and aggregates the reports.
// baseCfg/testCfg are Table 2 config ids (0 = original ZGC). shift is the
// power-of-two sampling knob (accesses per burst period). A non-nil sink
// serves each in-flight run's profiler live on /locality.
func RunLocalityAB(expID string, runs int, scale float64, seed int64, baseCfg, testCfg int, shift uint, sink *hcsgc.TelemetrySink, progress Progress) (*LocalityAB, error) {
	w, err := workloads.Get(expID)
	if err != nil {
		return nil, err
	}
	if runs <= 0 {
		runs = 3
	}
	profCfg := locality.Config{SamplePeriodShift: shift}
	ab := &LocalityAB{
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
	sides, err := runSides("locality "+expID, w, []int{baseCfg, testCfg}, runs, scale, seed, sink, progress,
		func(side int, rc *workloads.RunConfig) func(workloads.Result) {
			prof := locality.New(profCfg)
			rc.Locality = prof
			return func(workloads.Result) { reports[side] = append(reports[side], prof.Report()) }
		})
	if err != nil {
		return nil, err
	}
	for i, side := range []*LocalitySide{&ab.Base, &ab.Test} {
		*side = LocalitySide{
			Config: sides[i].config, Knobs: sides[i].knobs, Runs: runs,
			Stats:           locality.Aggregate(reports[i]),
			MeanExecSeconds: sides[i].meanExecSeconds,
			Reports:         reports[i],
		}
	}
	return ab, nil
}

// Validate sanity-checks a report's well-formedness: non-empty reuse
// histograms on both sides and purity within [0,1]. Used by the CI smoke
// step.
func (ab *LocalityAB) Validate() error {
	check := func(name string, s *hcsgc.LocalityStats) error {
		if s.SampledAccesses == 0 {
			return fmt.Errorf("locality: %s side sampled no accesses", name)
		}
		var histTotal uint64
		for _, c := range s.ReuseHist {
			histTotal += c
		}
		if histTotal == 0 && s.ColdSamples == 0 {
			return fmt.Errorf("locality: %s side reuse histogram is empty", name)
		}
		if s.SegPurity < 0 || s.SegPurity > 1 {
			return fmt.Errorf("locality: %s side purity %v outside [0,1]", name, s.SegPurity)
		}
		if s.StreamCoverage < 0 || s.StreamCoverage > 1 {
			return fmt.Errorf("locality: %s side stream coverage %v outside [0,1]", name, s.StreamCoverage)
		}
		return nil
	}
	if err := check("base", &ab.Base.Stats); err != nil {
		return err
	}
	return check("test", &ab.Test.Stats)
}

// WriteText renders the A/B comparison as an aligned text table.
func (ab *LocalityAB) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== locality A/B: %s (%s), %d runs, scale %g ===\n",
		ab.Experiment, ab.Workload, ab.Runs, ab.Scale)
	fmt.Fprintf(w, "profiler: 1 burst of %d accesses per %d, reuse window %d\n\n",
		ab.BurstLen, ab.SamplePeriod, ab.Window)

	b, t := &ab.Base.Stats, &ab.Test.Stats
	fmt.Fprintf(w, "%-24s %16s %16s %10s\n", "metric",
		fmt.Sprintf("cfg %d (%s)", ab.Base.Config, ab.Base.Knobs),
		fmt.Sprintf("cfg %d (%s)", ab.Test.Config, ab.Test.Knobs), "delta")
	row := func(name string, bv, tv float64, format string) {
		delta := ""
		if bv != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(tv-bv)/bv)
		}
		fmt.Fprintf(w, "%-24s %16s %16s %10s\n", name,
			fmt.Sprintf(format, bv), fmt.Sprintf(format, tv), delta)
	}
	row("exec seconds (mean)", ab.Base.MeanExecSeconds, ab.Test.MeanExecSeconds, "%.4f")
	row("reuse p50 (lines)", b.ReuseP50, t.ReuseP50, "%.0f")
	row("reuse p90 (lines)", b.ReuseP90, t.ReuseP90, "%.0f")
	row("reuse p99 (lines)", b.ReuseP99, t.ReuseP99, "%.0f")
	row("cold sample frac", b.ColdFrac, t.ColdFrac, "%.4f")
	row("stream coverage", b.StreamCoverage, t.StreamCoverage, "%.4f")
	row("+1-line coverage", b.SeqStreamCoverage, t.SeqStreamCoverage, "%.4f")
	row("mean stream length", b.MeanStreamLen, t.MeanStreamLen, "%.2f")
	row("page entropy (bits)", b.PageEntropyBits, t.PageEntropyBits, "%.3f")
	row("same-page fraction", b.SamePageFrac, t.SamePageFrac, "%.4f")
	row("segregation purity", b.SegPurity, t.SegPurity, "%.4f")
	fmt.Fprintf(w, "\nsampled accesses: base %d, test %d\n",
		b.SampledAccesses, t.SampledAccesses)
}

// WriteJSON renders the full A/B result, including the per-run reports.
func (ab *LocalityAB) WriteJSON(w io.Writer) error { return writeJSON(w, ab) }
