package bench

import (
	"testing"

	"hcsgc/internal/machine"
	"hcsgc/internal/workloads"
)

// These tests pin the paper's qualitative claims as regressions: not
// absolute numbers, but who wins. They run miniature sweeps, so they are
// skipped in -short mode.

// run3 runs a workload 3 times under a config and returns the mean
// simulated execution time.
func run3(t *testing.T, id string, config int, scale float64) float64 {
	return run3Seeded(t, id, config, scale, 1)
}

// run3Seeded is run3 with a caller-chosen seed base, so a retrying test
// can draw fresh interleavings instead of replaying the same borderline
// ones.
func run3Seeded(t *testing.T, id string, config int, scale float64, seedBase int64) float64 {
	t.Helper()
	return runMean(t, id, config, scale, seedBase, 3)
}

// runMean runs a workload under a config with seeds seedBase..seedBase+runs-1
// and returns the mean simulated execution time.
func runMean(t *testing.T, id string, config int, scale float64, seedBase int64, runs int) float64 {
	t.Helper()
	w, err := workloads.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for r := 0; r < runs; r++ {
		res, err := w.Run(workloads.RunConfig{
			Knobs: KnobsFor(config),
			Seed:  seedBase + int64(r),
			Scale: scale,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.ExecSeconds
	}
	return sum / float64(runs)
}

// TestShapeFig4LazyLargeECWins: the paper's best synthetic family
// (all-pages + lazy, Config 4) must beat baseline clearly, and the
// do-nothing config (lazy only, Config 2) must not differ much.
func TestShapeFig4LazyLargeECWins(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	// Six runs a side, one attempt: the concurrent GC phases race the
	// mutators on the host scheduler (ROADMAP item 1), so a mean over a
	// handful of GC cycles moves with host load. Over 24
	// full `go test ./...` runs the three-run ratio's worst case sat on the
	// 5% line (0.9495), the six-run one two points inside it (0.9305);
	// EXPERIMENTS.md "Shape-test tolerances" has the spread.
	const scale, runs = 0.04, 6
	base := runMean(t, "fig4", 0, scale, 1, runs)
	cfg4 := runMean(t, "fig4", 4, scale, 1, runs)
	cfg2 := runMean(t, "fig4", 2, scale, 1, runs)
	if cfg4 >= base*0.95 {
		t.Errorf("config 4 = %.4fs vs baseline %.4fs; want >=5%% win", cfg4, base)
	}
	if d := (cfg2 - base) / base; d < -0.05 || d > 0.05 {
		t.Errorf("config 2 delta = %+.1f%%, want ~0 (paper: no improvement)", d*100)
	}
}

// TestShapeFig6OverloadInverts: on one core with a big cold array,
// RELOCATEALLSMALLPAGES (Config 3) must LOSE to baseline, while
// COLDCONFIDENCE=1.0 (Config 7) must stay close.
func TestShapeFig6OverloadInverts(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	// Large enough that the cold array dwarfs the caches and garbage
	// triggers GC cycles; below ~0.02 no cycle fires and all configs tie.
	const scale = 0.03
	// Goroutine interleaving with the concurrent collector gives a 3-run
	// mean real variance, so one borderline draw must not fail the suite:
	// retry with fresh seeds, widening the slowdown margin each attempt
	// (5% -> 3% -> 1%). The paper's claim is relative — config 3 loses,
	// COLDCONFIDENCE (config 7) avoids that overhead (all-cold pages keep
	// WLB = live bytes and are never selected) — so an absolute bound
	// would be flaky at 3 runs under host load.
	margins := []float64{1.05, 1.03, 1.01}
	var base, cfg3, cfg7 float64
	for attempt, margin := range margins {
		seedBase := int64(1 + 100*attempt)
		base = run3Seeded(t, "fig6", 0, scale, seedBase)
		cfg3 = run3Seeded(t, "fig6", 3, scale, seedBase)
		cfg7 = run3Seeded(t, "fig6", 7, scale, seedBase)
		if cfg3 > base*margin && cfg7 < cfg3 {
			return
		}
		t.Logf("attempt %d (seeds %d..%d, margin %.0f%%): base %.4fs cfg3 %.4fs cfg7 %.4fs",
			attempt+1, seedBase, seedBase+2, (margin-1)*100, base, cfg3, cfg7)
	}
	if cfg3 <= base*margins[len(margins)-1] {
		t.Errorf("config 3 = %.4fs vs baseline %.4fs; want a clear slowdown (Fig. 6)", cfg3, base)
	}
	if cfg7 >= cfg3 {
		t.Errorf("config 7 (%.4fs) must stay below config 3 (%.4fs): cold-confidence avoids the Fig. 6 overhead", cfg7, cfg3)
	}
}

// TestShapeFig13Inconclusive: SPECjbb scores must overlap between baseline
// and a heavy HCSGC config (the paper's inconclusive result).
func TestShapeFig13Inconclusive(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	res, err := Run(Spec{
		ID: "fig13", Title: "shape", Runs: 3, Scale: 0.05,
		Configs: []int{0, 16}, Seed: 2,
		ScoreMetrics: []string{"max-jOPS"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := res.PerConfig[0].ScoreBoots["max-jOPS"]
	hcs := res.PerConfig[1].ScoreBoots["max-jOPS"]
	if !base.Overlaps(hcs) {
		t.Errorf("SPECjbb CIs disjoint: base [%f,%f] vs hcs [%f,%f]; paper reports overlap",
			base.CILow, base.CIHigh, hcs.CILow, hcs.CIHigh)
	}
}

// TestShapeMachineModelDrivesFig6: the same cold-array workload on the
// 4-thread laptop model must NOT show Config 3's single-core overhead —
// the inversion is a scheduling effect, not a cache effect.
func TestShapeMachineModelDrivesFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	w, _ := workloads.Get("fig6")
	run := func(config int, mach machine.Model, seedBase int64) float64 {
		var sum float64
		for r := 0; r < 3; r++ {
			res, err := w.Run(workloads.RunConfig{
				Knobs:   KnobsFor(config),
				Machine: mach,
				Seed:    seedBase + int64(r),
				Scale:   0.01,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.ExecSeconds
		}
		return sum / 3
	}
	// Each seed's schedule is deterministic, but whether Config 3's
	// single-core overhead hides on idle cores is a margin call — some
	// seed sets land near the threshold. Retry with fresh seeds and a
	// widening tolerance (EXPERIMENTS.md, "Shape-test tolerances"): a
	// real regression fails every margin, a borderline schedule clears a
	// wider one.
	margins := []float64{1.25, 1.35, 1.5}
	var base, cfg3 float64
	for attempt, margin := range margins {
		seedBase := int64(attempt*3 + 1)
		base = run(0, machine.Laptop(), seedBase)
		cfg3 = run(3, machine.Laptop(), seedBase)
		if cfg3 <= base*margin {
			return
		}
		if attempt < len(margins)-1 {
			t.Logf("attempt %d: config 3 on 4 threads = %.4fs vs %.4fs over margin %.2f; retrying with fresh seeds",
				attempt+1, cfg3, base, margin)
		}
	}
	t.Errorf("config 3 on 4 threads = %.4fs vs %.4fs even at margin %.2f; the Fig. 6 overhead should mostly hide on idle cores",
		cfg3, base, margins[len(margins)-1])
}

// jgraphtDeltas runs a JGraphT figure once under config 0 and once under
// each of cfgs, at the workload's default scale, through one runSides call,
// and returns each config's execution time relative to config 0's
// (−0.10 = 10 % faster). The JGraphT runs are one mutator through one or two
// GC cycles, and a delta moves by two points at most against effects of
// 7–26 %, so one run a side and one attempt suffice; a bound sits near half
// the effect measured at the default scale.
func jgraphtDeltas(t *testing.T, id string, cfgs ...int) map[int]float64 {
	t.Helper()
	if testing.Short() {
		t.Skip("shape sweep")
	}
	w, err := workloads.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	sides, err := runSides(id, w, configSides(append([]int{0}, cfgs...)...), 1, 0, 1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := sides[0].Times[0]
	deltas := make(map[int]float64, len(cfgs))
	for i, c := range cfgs {
		deltas[c] = sides[i+1].Times[0]/base - 1
		t.Logf("%s config %d vs 0: %+.1f%%", id, c, deltas[c]*100)
	}
	return deltas
}

// TestShapeFig7CCLazyLargeECWins: on the uk graph, whose heap outgrows the
// LLC at the default scale, all-pages + lazy (config 4) wins big, and the
// staircase's middle tier (config 9) wins too.
func TestShapeFig7CCLazyLargeECWins(t *testing.T) {
	d := jgraphtDeltas(t, "fig7", 4, 9)
	if d[4] > -0.15 {
		t.Errorf("config 4 vs 0 = %+.1f%%, want at most -15%% (Fig. 7)", d[4]*100)
	}
	if d[9] > -0.03 {
		t.Errorf("config 9 vs 0 = %+.1f%%, want at most -3%% (Fig. 7 staircase)", d[9]*100)
	}
}

// TestShapeFig8LazyWins: on the enwiki CC run, lazy relocation (config 2)
// wins, and all-pages without lazy (config 3) does nothing.
func TestShapeFig8LazyWins(t *testing.T) {
	d := jgraphtDeltas(t, "fig8", 2, 3)
	if d[2] > -0.05 {
		t.Errorf("config 2 vs 0 = %+.1f%%, want at most -5%% (Fig. 8)", d[2]*100)
	}
	if d[3] < -0.02 || d[3] > 0.02 {
		t.Errorf("config 3 vs 0 = %+.1f%%, want within ±2%% (Fig. 8)", d[3]*100)
	}
}

// TestShapeFig9LazyWins: on the uk MC run, lazy relocation (config 2) wins.
// The paper's config 3-over-2 gap is reversed here (EXPERIMENTS.md Fig. 9):
// config 3 is not below config 2, and the day it is, this test says so and
// the summary row changes with it.
func TestShapeFig9LazyWins(t *testing.T) {
	d := jgraphtDeltas(t, "fig9", 2, 3)
	if d[2] > -0.06 {
		t.Errorf("config 2 vs 0 = %+.1f%%, want at most -6%% (Fig. 9)", d[2]*100)
	}
	if d[3] < d[2] {
		t.Errorf("config 3 (%+.1f%%) below config 2 (%+.1f%%): the documented Fig. 9 reversal is gone",
			d[3]*100, d[2]*100)
	}
}

// TestShapeFig10LazyWins: on the enwiki MC run, lazy relocation (config 2)
// wins.
func TestShapeFig10LazyWins(t *testing.T) {
	d := jgraphtDeltas(t, "fig10", 2)
	if d[2] > -0.05 {
		t.Errorf("config 2 vs 0 = %+.1f%%, want at most -5%% (Fig. 10)", d[2]*100)
	}
}
