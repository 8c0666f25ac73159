package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/stats"
	"hcsgc/internal/workloads"
)

// Spec describes one experiment: a workload swept over configurations.
type Spec struct {
	// ID is the experiment id (e.g. "fig4").
	ID string
	// Title is a human-readable description.
	Title string
	// Runs is the sample size per configuration (the paper uses 30 for
	// synthetic/JGraphT, 5 for DaCapo and SPECjbb).
	Runs int
	// Scale passes through to the workload (0 = workload default).
	Scale float64
	// Configs lists the Table 2 configs to run (nil = all 19).
	Configs []int
	// Seed is the base seed; run r of any config uses Seed + r, so all
	// configs see identical workload randomness per run index.
	Seed int64
	// ScoreMetrics, when set, means the workload's Scores (not execution
	// time) are the headline metrics (SPECjbb).
	ScoreMetrics []string
	// Telemetry, when non-nil, attaches the live observability sink to
	// every run of the experiment (cmd/hcsgc-bench -telemetry-addr).
	Telemetry *hcsgc.TelemetrySink
}

// ConfigResult aggregates one configuration's runs.
type ConfigResult struct {
	Config int
	Knobs  hcsgc.Knobs
	// SideStats holds the per-run execution seconds, their bootstrap, and
	// the means of the cache and GC counters.
	SideStats
	Box stats.BoxPlot
	// TimeVsBaseline is the normalised mean delta against Config 0
	// (negative = speedup).
	TimeVsBaseline float64
	// Cache statistics: deltas of the per-run means vs Config 0.
	LoadsVsBase, L1VsBase, LLCVsBase float64

	// ScoreBoots holds bootstrap estimates for workload scores (SPECjbb).
	ScoreBoots map[string]stats.Bootstrap
}

// Result is a full experiment.
type Result struct {
	Spec     Spec
	Workload string
	// Scale is the scale the runs used: Spec.Scale, or the workload's
	// default where that is 0.
	Scale     float64
	PerConfig []ConfigResult
	// HeapSeries is the heap-usage-over-time trace of one Config 0 run
	// (the rightmost plot of each figure).
	HeapSeries []workloads.HeapSample
}

// Progress receives runner progress messages (may be nil).
type Progress func(format string, args ...any)

func (p Progress) printf(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// side is one arm of a sweep: the label its progress lines and errors
// name it by, and the run config every one of its runs starts from,
// knobs included.
type side struct {
	label string
	rc    workloads.RunConfig
}

// configSides is one side per Table 2 config id.
func configSides(cfgs ...int) []side {
	sides := make([]side, len(cfgs))
	for i, c := range cfgs {
		sides[i] = side{fmt.Sprintf("config %d", c), workloads.RunConfig{Knobs: KnobsFor(c)}}
	}
	return sides
}

// SideStats is what runSides measures about every side over its runs. The
// figure table, the ablation table and the A/B reports all read it.
type SideStats struct {
	// Times are the per-run simulated execution seconds; Boot is their
	// bootstrap mean with its 95% CI.
	Times []float64
	Boot  stats.Bootstrap
	// Per-run means of the whole-process cache counters and of the GC
	// counters.
	Loads, L1Misses, LLCMisses                     float64
	GCCycles, MedianECSmall, MutatorReloc, GCReloc float64
}

// add folds one run into the side; the counters stay sums until finish.
func (s *SideStats) add(r workloads.Result) {
	s.Times = append(s.Times, r.ExecSeconds)
	s.Loads += float64(r.Loads)
	s.L1Misses += float64(r.L1Misses)
	s.LLCMisses += float64(r.LLCMisses)
	s.GCCycles += float64(r.GCCycleCount)
	s.MedianECSmall += r.MedianECSmall
	s.MutatorReloc += float64(r.MutatorReloc)
	s.GCReloc += float64(r.GCReloc)
}

// finish turns the sums into per-run means and bootstraps the times,
// resampling with seed.
func (s *SideStats) finish(seed int64) {
	n := float64(len(s.Times))
	for _, v := range []*float64{&s.Loads, &s.L1Misses, &s.LLCMisses,
		&s.GCCycles, &s.MedianECSmall, &s.MutatorReloc, &s.GCReloc} {
		*v /= n
	}
	s.Boot = stats.BootstrapMean(s.Times, stats.DefaultResamples, seed)
}

// runSides is the one loop that runs a workload for a sweep: w under each
// side, runs times each. Run r of every side uses seed+r, so every side
// sees identical workload randomness per run index, and every side runs
// run index r before any side starts r+1: the sides of one run index
// follow each other, share the workload's cached inputs (a KV schedule),
// and host drift over the sweep lands on every side alike. A failed run
// fails the sweep.
//
// A GC configuration must never change program results: each run's
// checksum must equal that of every earlier run with the same run index
// and the same offered load (LoadFactor sets the KV schedule). A protected
// KV run (RunConfig.Overload) is not checked: shedding changes which
// operations execute.
//
// perRun, when not nil, is called before every run with the side's index
// and the run's config to attach its planes to; it returns what to do
// with the finished run (nil = nothing). Side i bootstraps its times with
// seed+i.
func runSides(label string, w workloads.Workload, sides []side, runs int, scale float64, seed int64,
	sink *hcsgc.TelemetrySink, progress Progress,
	perRun func(side int, rc *workloads.RunConfig) func(workloads.Result)) ([]SideStats, error) {
	type checkKey struct {
		run  int
		load float64
	}
	checks := map[checkKey]uint64{}
	out := make([]SideStats, len(sides))
	for run := 0; run < runs; run++ {
		for i, s := range sides {
			rc := s.rc
			rc.Seed, rc.Scale, rc.Telemetry = seed+int64(run), scale, sink
			var collect func(workloads.Result)
			if perRun != nil {
				collect = perRun(i, &rc)
			}
			res, err := w.Run(rc)
			if err != nil {
				return nil, fmt.Errorf("%s: %s run %d: %w", label, s.label, run, err)
			}
			if !rc.Overload {
				key := checkKey{run, rc.LoadFactor}
				if prev, seen := checks[key]; seen && res.Check != prev {
					return nil, fmt.Errorf(
						"%s: %s run %d checksum %d != expected %d — GC configuration changed program results",
						label, s.label, run, res.Check, prev)
				}
				checks[key] = res.Check
			}
			if collect != nil {
				collect(res)
			}
			out[i].add(res)
			progress.printf("%s %s run %d/%d", label, s.label, run+1, runs)
		}
	}
	for i := range out {
		out[i].finish(seed + int64(i))
	}
	return out, nil
}

// writeJSON is the one JSON rendering behind every report mode's -json
// file: indented, the format the CI jobs upload.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Run executes the experiment: every configuration of the spec is a side
// of one sweep.
func Run(spec Spec, progress Progress) (Result, error) {
	w, err := workloads.Get(spec.ID)
	if err != nil {
		return Result{}, err
	}
	if spec.Runs <= 0 {
		spec.Runs = 5
	}
	configs := spec.Configs
	if len(configs) == 0 {
		configs = AllConfigs()
	}
	res := Result{Spec: spec, Workload: w.Name}
	scores := make([]map[string][]float64, len(configs))
	sides, err := runSides("bench "+spec.ID, w, configSides(configs...), spec.Runs, spec.Scale, spec.Seed,
		spec.Telemetry, progress, func(i int, _ *workloads.RunConfig) func(workloads.Result) {
			return func(out workloads.Result) {
				res.Scale = out.Scale
				if scores[i] == nil {
					scores[i] = map[string][]float64{}
				}
				for k, v := range out.Scores {
					scores[i][k] = append(scores[i][k], v)
				}
				if configs[i] == 0 && res.HeapSeries == nil {
					res.HeapSeries = out.HeapSamples
				}
			}
		})
	if err != nil {
		return Result{}, err
	}
	for i, s := range sides {
		cr := ConfigResult{Config: configs[i], Knobs: KnobsFor(configs[i]), SideStats: s,
			Box: stats.NewBoxPlot(s.Times), ScoreBoots: map[string]stats.Bootstrap{}}
		for k, sample := range scores[i] {
			cr.ScoreBoots[k] = stats.BootstrapMean(sample, stats.DefaultResamples, spec.Seed+int64(i))
		}
		res.PerConfig = append(res.PerConfig, cr)
	}

	// Normalise against Config 0 when present.
	if base := res.Baseline(); base != nil {
		for i := range res.PerConfig {
			cr := &res.PerConfig[i]
			cr.TimeVsBaseline = stats.NormalizedDelta(cr.Boot.Mean, base.Boot.Mean)
			cr.LoadsVsBase = stats.NormalizedDelta(cr.Loads, base.Loads)
			cr.L1VsBase = stats.NormalizedDelta(cr.L1Misses, base.L1Misses)
			cr.LLCVsBase = stats.NormalizedDelta(cr.LLCMisses, base.LLCMisses)
		}
	}
	return res, nil
}

// Baseline returns the Config 0 result, or nil.
func (r *Result) Baseline() *ConfigResult {
	for i := range r.PerConfig {
		if r.PerConfig[i].Config == 0 {
			return &r.PerConfig[i]
		}
	}
	return nil
}

// Significant reports whether cfg's time CI is disjoint from the
// baseline's (a significant difference at the 95% level, §4.2).
func (r *Result) Significant(cfg int) bool {
	base := r.Baseline()
	if base == nil {
		return false
	}
	for i := range r.PerConfig {
		if r.PerConfig[i].Config == cfg {
			return !r.PerConfig[i].Boot.Overlaps(base.Boot)
		}
	}
	return false
}
