// Benchmarks regenerating the paper's tables and figures in miniature:
// one testing.B benchmark per table/figure. Each benchmark runs the
// corresponding workload under the ZGC baseline (Config 0) and a
// representative HCSGC configuration, reporting simulated execution time
// and LLC misses as custom metrics. The full sweeps over all 19
// configurations with bootstrap statistics live in cmd/hcsgc-bench.
package hcsgc_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"hcsgc"
	"hcsgc/internal/bench"
	"hcsgc/internal/graphgen"
	"hcsgc/internal/stats"
	"hcsgc/internal/workloads"
)

// benchScale keeps each single run fast; hcsgc-bench uses larger scales.
const benchScale = 0.02

// benchConfigs is the config subset exercised per figure: the baseline and
// the paper's strongest configuration family.
var benchConfigs = []int{0, 4, 16}

func benchmarkFigure(b *testing.B, id string) {
	w, err := workloads.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range benchConfigs {
		knobs := bench.KnobsFor(cfg)
		b.Run(fmt.Sprintf("config%d", cfg), func(b *testing.B) {
			var simSecs, llc float64
			for i := 0; i < b.N; i++ {
				res, err := w.Run(workloads.RunConfig{
					Knobs: knobs,
					Seed:  int64(i + 1),
					Scale: benchScale,
				})
				if err != nil {
					b.Fatal(err)
				}
				simSecs += res.ExecSeconds
				llc += float64(res.LLCMisses)
			}
			b.ReportMetric(simSecs/float64(b.N), "sim-s/run")
			b.ReportMetric(llc/float64(b.N), "LLCmiss/run")
		})
	}
}

func BenchmarkFig4Synthetic(b *testing.B)   { benchmarkFigure(b, "fig4") }
func BenchmarkFig5Phases(b *testing.B)      { benchmarkFigure(b, "fig5") }
func BenchmarkFig6Overload(b *testing.B)    { benchmarkFigure(b, "fig6") }
func BenchmarkFig7CCUK(b *testing.B)        { benchmarkFigure(b, "fig7") }
func BenchmarkFig8CCEnwiki(b *testing.B)    { benchmarkFigure(b, "fig8") }
func BenchmarkFig9MCUK(b *testing.B)        { benchmarkFigure(b, "fig9") }
func BenchmarkFig10MCEnwiki(b *testing.B)   { benchmarkFigure(b, "fig10") }
func BenchmarkFig11Tradebeans(b *testing.B) { benchmarkFigure(b, "fig11") }
func BenchmarkFig12H2(b *testing.B)         { benchmarkFigure(b, "fig12") }
func BenchmarkFig13SPECjbb(b *testing.B)    { benchmarkFigure(b, "fig13") }

// planeModes lists every attachable observation plane's priced setting: on
// attaches it, and the other side of the pair is the RunConfig left alone
// (a nil plane reduces each of its sites to one predictable nil check). The
// latency, signal and contention planes are part of every runtime and have
// no row: their cost is planes.host_share in benchmark/.
var planeModes = []struct {
	name string
	on   func(*workloads.RunConfig)
}{
	// A live recorder and registry against the production default, none.
	{"telemetry", func(rc *workloads.RunConfig) { rc.Telemetry = hcsgc.NewTelemetrySink() }},
	// armed-zero threads a live injector whose schedule never fires,
	// pricing the per-point decision path; verify adds the STW heap
	// verifier, a full heap walk per pause.
	{"faultinject-armed-zero", func(rc *workloads.RunConfig) {
		rc.FaultInjector = hcsgc.NewFaultInjector(hcsgc.FaultConfig{})
	}},
	{"faultinject-verify", func(rc *workloads.RunConfig) {
		rc.FaultInjector = hcsgc.NewFaultInjector(hcsgc.FaultConfig{})
		rc.Verifier = hcsgc.NewHeapVerifier()
	}},
}

// BenchmarkPlaneOverhead prices each observation plane on a representative
// workload run (fig4, config 4) as the ratio of host time with the plane on
// to host time with it off. Each iteration is one pair of runs of the same
// seed, back to back, alternating which side goes first, so drift of the
// host lands on both sides alike; the ratio is taken per pair. Reported are
// the median ratio and its quartiles over the pairs. A plane only adds
// work, so unless the lower quartile is above 1 — and there are at least
// three pairs — these runs cannot tell its cost from noise: the benchmark
// then reports unresolved=1 and no on/off figure, rather than a number that
// reads "off is slower". Use -benchtime 10x or more.
func BenchmarkPlaneOverhead(b *testing.B) {
	w, err := workloads.Get("fig4")
	if err != nil {
		b.Fatal(err)
	}
	knobs := bench.KnobsFor(4)
	timed := func(b *testing.B, seed int64, set func(*workloads.RunConfig)) float64 {
		rc := workloads.RunConfig{Knobs: knobs, Seed: seed, Scale: benchScale}
		if set != nil {
			set(&rc)
		}
		start := time.Now()
		if _, err := w.Run(rc); err != nil {
			b.Fatal(err)
		}
		return float64(time.Since(start))
	}
	for _, mode := range planeModes {
		b.Run(mode.name, func(b *testing.B) {
			ratios := make([]float64, b.N)
			var offNs float64
			for i := range ratios {
				seed := int64(i + 1)
				var on, off float64
				if i%2 == 0 {
					off, on = timed(b, seed, nil), timed(b, seed, mode.on)
				} else {
					on, off = timed(b, seed, mode.on), timed(b, seed, nil)
				}
				ratios[i] = on / off
				offNs += off
			}
			sort.Float64s(ratios)
			q1, q3 := stats.Quantile(ratios, 0.25), stats.Quantile(ratios, 0.75)
			b.ReportMetric(offNs/float64(b.N)/1e6, "off-ms/run")
			b.ReportMetric(q1, "on/off-q1")
			b.ReportMetric(q3, "on/off-q3")
			if b.N < 3 || q1 <= 1 {
				b.ReportMetric(1, "unresolved")
				return
			}
			b.ReportMetric(stats.Quantile(ratios, 0.5), "on/off")
		})
	}
}

// BenchmarkTable1PageAlloc measures the page allocator underlying the
// Table 1 size classes.
func BenchmarkTable1PageAlloc(b *testing.B) {
	rt := hcsgc.MustNewRuntime(hcsgc.Options{HeapMaxBytes: 1 << 30, DisableMemModel: true})
	defer rt.Close()
	m := rt.NewMutator(1)
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AllocWordArray(30) // small-class allocation through the TLAB
	}
}

// BenchmarkTable2ConfigSweep measures one tiny workload run per Table 2
// configuration, confirming all 19 are runnable.
func BenchmarkTable2ConfigSweep(b *testing.B) {
	w, _ := workloads.Get("fig4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := bench.AllConfigs()[i%bench.NumConfigs]
		if _, err := w.Run(workloads.RunConfig{Knobs: bench.KnobsFor(cfg), Seed: 1, Scale: 0.005}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3GraphGen measures generation of the Table 3 graph inputs
// at a reduced scale.
func BenchmarkTable3GraphGen(b *testing.B) {
	for _, p := range graphgen.Presets() {
		b.Run(p.Name, func(b *testing.B) {
			params := p.Scaled(0.1)
			for i := 0; i < b.N; i++ {
				g := graphgen.MustGenerate(params)
				if g.Nodes() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}
