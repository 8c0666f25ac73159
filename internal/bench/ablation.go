package bench

import (
	"fmt"
	"io"

	"hcsgc"
	"hcsgc/internal/simmem"
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
//   - gcworkers: relocation bandwidth vs mutator-won races.
//
// (A sweep of a feedback loop on ColdConfidence went with the loop, which
// no run told apart from a fixed setting: DESIGN.md §6.)
//
// Each ablation runs the synthetic single-phase workload (fig4) under a
// fixed HCSGC configuration while varying one dimension.

// AblationPoint is one sampled setting: its label and what its runs
// measured (the table prints the mean execution seconds with their 95% CI
// and the mean process LLC miss count).
type AblationPoint struct {
	Label string
	SideStats
}

// AblationResult is one ablation sweep.
type AblationResult struct {
	Name   string
	Desc   string
	Points []AblationPoint
}

// ablations is the table of sweeps, in -list order: each fixes a
// configuration and lists the settings of the one dimension it varies, one
// side each.
var ablations = []struct {
	name, desc string
	sides      func() []side
}{
	{"prefetch", "HCSGC config 4 under varying stream-prefetcher depth (0 = off)",
		func() (out []side) {
			for _, depth := range []int{0, 1, 2, 4, 8, 16} {
				mem := simmem.DefaultConfig()
				mem.PrefetchDepth = depth
				out = append(out, side{fmt.Sprintf("depth=%d", depth),
					workloads.RunConfig{Knobs: KnobsFor(4), MemConfig: &mem}})
			}
			return out
		}},
	{"ecthreshold", "baseline ZGC under varying evacuation live-ratio thresholds (paper: 0.75)",
		func() (out []side) {
			for _, th := range []float64{0.25, 0.5, 0.75, 0.9} {
				out = append(out, side{fmt.Sprintf("threshold=%.2f", th),
					workloads.RunConfig{Knobs: hcsgc.Knobs{}, EvacThreshold: th}})
			}
			return out
		}},
	{"gcworkers", "config 3 (all pages, eager) under varying GC worker counts: more workers win more relocation races from the mutator",
		func() (out []side) {
			for _, workers := range []int{1, 2, 4, 8} {
				out = append(out, side{fmt.Sprintf("workers=%d", workers),
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

// RunAblation executes one ablation by name: its settings are the sides
// of one fig4 sweep. A non-nil sink serves each in-flight run's planes
// live.
func RunAblation(name string, runs int, scale float64, seed int64, sink *hcsgc.TelemetrySink, progress Progress) (AblationResult, error) {
	if runs <= 0 {
		runs = 5
	}
	if scale <= 0 {
		scale = 0.04
	}
	w, err := workloads.Get("fig4")
	if err != nil {
		return AblationResult{}, err
	}
	for _, a := range ablations {
		if a.name != name {
			continue
		}
		sides := a.sides()
		measured, err := runSides("ablate "+a.name, w, sides, runs, scale, seed, sink, progress, nil)
		if err != nil {
			return AblationResult{}, err
		}
		res := AblationResult{Name: a.name, Desc: a.desc}
		for i, s := range measured {
			res.Points = append(res.Points, AblationPoint{Label: sides[i].label, SideStats: s})
		}
		return res, nil
	}
	return AblationResult{}, fmt.Errorf("bench: unknown ablation %q (have %v)", name, AblationNames())
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
