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

	// Times are per-run execution seconds (simulated).
	Times []float64
	Box   stats.BoxPlot
	Boot  stats.Bootstrap
	// TimeVsBaseline is the normalised mean delta against Config 0
	// (negative = speedup).
	TimeVsBaseline float64

	// Cache statistics: per-run means and deltas vs Config 0.
	Loads, L1Misses, LLCMisses       float64
	LoadsVsBase, L1VsBase, LLCVsBase float64
	// GC statistics.
	GCCycles      float64
	MedianECSmall float64
	MutatorReloc  float64
	GCReloc       float64

	// ScoreBoots holds bootstrap estimates for workload scores (SPECjbb).
	ScoreBoots map[string]stats.Bootstrap
}

// Result is a full experiment.
type Result struct {
	Spec      Spec
	Workload  string
	PerConfig []ConfigResult
	// HeapSeries is the heap-usage-over-time trace of one Config 0 run
	// (the rightmost plot of each figure).
	HeapSeries []workloads.HeapSample
	// Checks maps run index -> workload checksum; the runner verifies all
	// configs agree per run index.
	Checks map[int]uint64
}

// Progress receives runner progress messages (may be nil).
type Progress func(format string, args ...any)

func (p Progress) printf(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// runCore is the per-run core every config-vs-config experiment shares:
// it completes the run's config (Table 2 knobs, seed+run so that every
// configuration sees identical workload randomness per run index, scale,
// telemetry sink), runs the workload, and cross-checks the checksum
// against the first configuration that ran the same run index. A protected
// KV run (RunConfig.Overload) is not cross-checked: shedding changes which
// operations execute, so its checksum legitimately differs.
type runCore struct {
	label  string // error prefix, e.g. "latency fig4"
	w      workloads.Workload
	scale  float64
	seed   int64
	sink   *hcsgc.TelemetrySink
	checks map[int]uint64 // run index -> checksum
}

func (c *runCore) run(cfgID, run int, rc workloads.RunConfig) (workloads.Result, error) {
	rc.Knobs = KnobsFor(cfgID)
	rc.Seed = c.seed + int64(run)
	rc.Scale = c.scale
	rc.Telemetry = c.sink
	out, err := c.w.Run(rc)
	if err != nil {
		return out, fmt.Errorf("%s: config %d run %d: %w", c.label, cfgID, run, err)
	}
	if rc.Overload {
		return out, nil
	}
	if prev, seen := c.checks[run]; seen && out.Check != prev {
		return out, fmt.Errorf(
			"%s: config %d run %d checksum %d != expected %d — GC configuration changed program results",
			c.label, cfgID, run, out.Check, prev)
	}
	c.checks[run] = out.Check
	return out, nil
}

// abSide is what runSides measures about every side itself; the plane
// reports are the caller's.
type abSide struct {
	config int
	knobs  string
	// meanExecSeconds is the mean simulated execution time; gcCycles
	// counts collections across all runs.
	meanExecSeconds float64
	gcCycles        int
}

// runSides is the A/B loop: w under each configuration of cfgs, runs
// times each, through one runCore. perRun is the caller's whole
// contribution: called before every run with the side's index and the
// run's config to attach its planes to, it returns what to do with the
// finished run (nil = nothing).
func runSides(label string, w workloads.Workload, cfgs []int, runs int, scale float64, seed int64,
	sink *hcsgc.TelemetrySink, progress Progress,
	perRun func(side int, rc *workloads.RunConfig) func(workloads.Result)) ([]abSide, error) {
	core := runCore{label: label, w: w, scale: scale, seed: seed, sink: sink, checks: map[int]uint64{}}
	sides := make([]abSide, len(cfgs))
	for i, cfgID := range cfgs {
		side := &sides[i]
		side.config, side.knobs = cfgID, KnobsFor(cfgID).String()
		var exec float64
		for run := 0; run < runs; run++ {
			var rc workloads.RunConfig
			collect := perRun(i, &rc)
			out, err := core.run(cfgID, run, rc)
			if err != nil {
				return nil, err
			}
			if collect != nil {
				collect(out)
			}
			exec += out.ExecSeconds
			side.gcCycles += out.GCCycleCount
			progress.printf("%s config %-2d run %d/%d", label, cfgID, run+1, runs)
		}
		side.meanExecSeconds = exec / float64(runs)
	}
	return sides, nil
}

// writeJSON is the one JSON rendering behind every report mode's -json
// file: indented, the format the CI jobs upload.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Run executes the experiment.
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
	res := Result{Spec: spec, Workload: w.Name, Checks: map[int]uint64{}}
	core := runCore{label: "bench " + spec.ID, w: w, scale: spec.Scale, seed: spec.Seed,
		sink: spec.Telemetry, checks: res.Checks}

	for _, cfgID := range configs {
		knobs := KnobsFor(cfgID)
		cr := ConfigResult{Config: cfgID, Knobs: knobs, ScoreBoots: map[string]stats.Bootstrap{}}
		scoreSamples := map[string][]float64{}
		var loads, l1, llc, cycles, medEC, mutReloc, gcReloc float64
		for run := 0; run < spec.Runs; run++ {
			out, err := core.run(cfgID, run, workloads.RunConfig{})
			if err != nil {
				return Result{}, err
			}
			cr.Times = append(cr.Times, out.ExecSeconds)
			loads += float64(out.Loads)
			l1 += float64(out.L1Misses)
			llc += float64(out.LLCMisses)
			cycles += float64(out.GCCycleCount)
			medEC += out.MedianECSmall
			mutReloc += float64(out.MutatorReloc)
			gcReloc += float64(out.GCReloc)
			for k, v := range out.Scores {
				scoreSamples[k] = append(scoreSamples[k], v)
			}
			if cfgID == 0 && run == 0 {
				res.HeapSeries = out.HeapSamples
			}
		}
		n := float64(spec.Runs)
		cr.Loads, cr.L1Misses, cr.LLCMisses = loads/n, l1/n, llc/n
		cr.GCCycles, cr.MedianECSmall = cycles/n, medEC/n
		cr.MutatorReloc, cr.GCReloc = mutReloc/n, gcReloc/n
		cr.Box = stats.NewBoxPlot(cr.Times)
		cr.Boot = stats.BootstrapMean(cr.Times, stats.DefaultResamples, spec.Seed+int64(cfgID))
		for k, sample := range scoreSamples {
			cr.ScoreBoots[k] = stats.BootstrapMean(sample, stats.DefaultResamples, spec.Seed+int64(cfgID))
		}
		res.PerConfig = append(res.PerConfig, cr)
		progress.printf("%s config %-2d  %-28s mean %.4fs", spec.ID, cfgID, knobs, cr.Boot.Mean)
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
