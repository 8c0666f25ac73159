package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/simmem"
	"hcsgc/internal/stats"
	"hcsgc/internal/workloads"
)

// Ablations isolate the design choices DESIGN.md calls out, beyond the
// paper's own configuration sweep:
//
//   - prefetch: how much of HCSGC's win depends on the hardware stream
//     prefetcher (the paper claims the layout is "prefetching friendly" —
//     turning the prefetcher off quantifies that claim).
//   - ecthreshold: sensitivity of baseline EC selection to the 75%
//     live-ratio threshold.
//   - autotune: the paper's future-work feedback loop, compared against
//     fixed ColdConfidence settings.
//   - gcworkers: relocation bandwidth vs mutator-won races.
//
// Each ablation runs the synthetic single-phase workload (fig4) under a
// fixed HCSGC configuration while varying one dimension.

// AblationPoint is one sampled setting.
type AblationPoint struct {
	Label string
	// Mean execution seconds with 95% CI.
	Boot stats.Bootstrap
	// LLCMisses is the mean process LLC miss count.
	LLCMisses float64
}

// AblationResult is one ablation sweep.
type AblationResult struct {
	Name   string
	Desc   string
	Points []AblationPoint
}

// ablationSetting is one sampled setting of a sweep.
type ablationSetting struct {
	label string
	cfg   workloads.RunConfig
}

// ablations is the table of sweeps, in -list order: each fixes a
// configuration and lists the settings of the one dimension it varies.
var ablations = []struct {
	name, desc string
	settings   func() []ablationSetting
}{
	{"prefetch", "HCSGC config 4 under varying stream-prefetcher depth (0 = off)",
		func() (out []ablationSetting) {
			for _, depth := range []int{0, 1, 2, 4, 8, 16} {
				mem := simmem.DefaultConfig()
				mem.PrefetchDepth = depth
				out = append(out, ablationSetting{fmt.Sprintf("depth=%d", depth),
					workloads.RunConfig{Knobs: KnobsFor(4), MemConfig: &mem}})
			}
			return out
		}},
	{"ecthreshold", "baseline ZGC under varying evacuation live-ratio thresholds (paper: 0.75)",
		func() (out []ablationSetting) {
			for _, th := range []float64{0.25, 0.5, 0.75, 0.9} {
				out = append(out, ablationSetting{fmt.Sprintf("threshold=%.2f", th),
					workloads.RunConfig{Knobs: hcsgc.Knobs{}, EvacThreshold: th}})
			}
			return out
		}},
	{"autotune", "fixed ColdConfidence settings vs the feedback loop (paper §4.8 future work)",
		func() []ablationSetting {
			tuned := KnobsFor(10)
			tuned.AutoTune = true
			return []ablationSetting{
				{"fixed cc=0.5", workloads.RunConfig{Knobs: KnobsFor(9)}},
				{"fixed cc=1.0", workloads.RunConfig{Knobs: KnobsFor(10)}},
				{"autotune cc<=1.0", workloads.RunConfig{Knobs: tuned}},
			}
		}},
	{"gcworkers", "config 3 (all pages, eager) under varying GC worker counts: more workers win more relocation races from the mutator",
		func() (out []ablationSetting) {
			for _, workers := range []int{1, 2, 4, 8} {
				out = append(out, ablationSetting{fmt.Sprintf("workers=%d", workers),
					workloads.RunConfig{Knobs: KnobsFor(3), GCWorkers: workers}})
			}
			return out
		}},
}

// AblationNames lists the available ablations.
func AblationNames() []string {
	names := make([]string, len(ablations))
	for i := range ablations {
		names[i] = ablations[i].name
	}
	return names
}

// RunAblation executes one ablation by name.
func RunAblation(name string, runs int, scale float64, seed int64, progress Progress) (AblationResult, error) {
	if runs <= 0 {
		runs = 5
	}
	if scale <= 0 {
		scale = 0.04
	}
	for _, a := range ablations {
		if a.name != name {
			continue
		}
		res := AblationResult{Name: a.name, Desc: a.desc}
		for _, s := range a.settings() {
			p := sample(runs, scale, seed, s.cfg)
			p.Label = s.label
			res.Points = append(res.Points, p)
			progress.printf("%s %s: %.4fs", a.name, p.Label, p.Boot.Mean)
		}
		return res, nil
	}
	return AblationResult{}, fmt.Errorf("bench: unknown ablation %q (have %v)", name, AblationNames())
}

// sample runs the fig4 workload `runs` times for one setting.
func sample(runs int, scale float64, seed int64, cfg workloads.RunConfig) AblationPoint {
	w, _ := workloads.Get("fig4")
	var times []float64
	var llc float64
	for r := 0; r < runs; r++ {
		c := cfg
		c.Seed = seed + int64(r)
		c.Scale = scale
		res, err := w.Run(c)
		if err != nil {
			// Ablation points are advisory: an exhausted run contributes no
			// sample rather than aborting the whole sweep.
			continue
		}
		times = append(times, res.ExecSeconds)
		llc += float64(res.LLCMisses)
	}
	return AblationPoint{
		Boot:      stats.BootstrapMean(times, stats.DefaultResamples, seed),
		LLCMisses: llc / float64(runs),
	}
}

// WriteAblation renders one ablation sweep.
func WriteAblation(w io.Writer, r *AblationResult) {
	fmt.Fprintf(w, "== ABLATION %s ==\n%s\n\n", r.Name, r.Desc)
	fmt.Fprintf(w, "%-20s %25s %14s\n", "setting", "exec mean [95% CI]", "LLC misses")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-20s %8.4f [%7.4f,%7.4f] %14.0f\n",
			p.Label, p.Boot.Mean, p.Boot.CILow, p.Boot.CIHigh, p.LLCMisses)
	}
	fmt.Fprintln(w)
}
