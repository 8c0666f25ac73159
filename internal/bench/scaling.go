package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"hcsgc"
	"hcsgc/internal/contention"
	"hcsgc/internal/telemetry/latency"
	"hcsgc/internal/workloads"
)

// The scaling sweep (`hcsgc-bench -report scaling`) answers the question the
// per-site contention counters raise: which lock stops this collector
// from scaling, and at what mutator count. It runs the shared-array
// synthetic (fig4) and the sharded KV server across a ladder of mutator
// counts with a fresh contention plane per run, fits the Universal
// Scalability Law to the throughput curve, and prints the ranked
// contention table next to each point so the σ the fit reports has a
// name attached.
const (
	// scalingTopSites / scalingTopCAS bound the per-point ranked tables
	// (full totals remain on the /contention endpoint of a live run).
	scalingTopSites = 6
	scalingTopCAS   = 4
	// scalingConfig is the GC configuration under test:
	// RelocateAllSmallPages, the serving-path default the KV A/B uses.
	scalingConfig = 3
)

// ScalingMutators is the default mutator-count ladder.
var ScalingMutators = []int{1, 2, 4, 8, 16, 64}

// scalingWorkloads are the swept workloads, in report order: fig4 shares
// one array across every mutator (maximum heap/LLC crosstalk), kv shards
// by thread (contention concentrates in the runtime, not the data).
var scalingWorkloads = []string{"fig4", "kv"}

// USLFit is a least-squares fit of Gunther's Universal Scalability Law
//
//	X(N) = λN / (1 + σ(N−1) + κN(N−1))
//
// to the measured throughput curve: λ is the single-mutator throughput,
// σ the contention (serialization) coefficient, κ the crosstalk
// (coherency) coefficient. κ > 0 means throughput has an interior peak at
// PeakN and decays beyond it.
type USLFit struct {
	Lambda float64 `json:"lambda"`
	Sigma  float64 `json:"sigma"`
	Kappa  float64 `json:"kappa"`
	// R2 is the coefficient of determination of the linearized fit.
	R2 float64 `json:"r2"`
	// PeakN is the mutator count maximizing predicted throughput
	// (0 = no interior peak within the model).
	PeakN float64 `json:"peak_n,omitempty"`
}

// Predict evaluates the fitted model at n mutators.
func (f USLFit) Predict(n float64) float64 {
	den := 1 + f.Sigma*(n-1) + f.Kappa*n*(n-1)
	if den <= 0 {
		return 0
	}
	return f.Lambda * n / den
}

// FitUSL fits the USL to (mutators, throughput) points by linearized
// least squares: with y = N/X(N), the model is y = a + b(N−1) + cN(N−1),
// a pure linear system in (a, b, c); then λ = 1/a, σ = b/a, κ = c/a,
// clamped to the physically meaningful σ, κ ≥ 0. Requires at least three
// distinct mutator counts with positive throughput.
func FitUSL(ns []float64, xs []float64) (USLFit, error) {
	if len(ns) != len(xs) {
		return USLFit{}, fmt.Errorf("bench: FitUSL: %d mutator counts vs %d throughputs", len(ns), len(xs))
	}
	distinct := map[float64]bool{}
	var rows [][3]float64
	var ys []float64
	for i := range ns {
		if ns[i] < 1 || xs[i] <= 0 {
			continue
		}
		distinct[ns[i]] = true
		rows = append(rows, [3]float64{1, ns[i] - 1, ns[i] * (ns[i] - 1)})
		ys = append(ys, ns[i]/xs[i])
	}
	if len(distinct) < 3 {
		return USLFit{}, fmt.Errorf("bench: FitUSL: need >= 3 distinct mutator counts, got %d", len(distinct))
	}

	// Normal equations A·p = v for the 3-parameter linear model.
	var a [3][4]float64 // augmented [A | v]
	for i, r := range rows {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				a[j][k] += r[j] * r[k]
			}
			a[j][3] += r[j] * ys[i]
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < 3; col++ {
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if math.Abs(a[col][col]) < 1e-12 {
			return USLFit{}, fmt.Errorf("bench: FitUSL: singular system (degenerate mutator ladder)")
		}
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for k := col; k < 4; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	pa := a[0][3] / a[0][0]
	pb := a[1][3] / a[1][1]
	pc := a[2][3] / a[2][2]
	if pa <= 0 {
		return USLFit{}, fmt.Errorf("bench: FitUSL: non-positive intercept %g (throughput curve inconsistent with USL)", pa)
	}

	fit := USLFit{Lambda: 1 / pa, Sigma: pb / pa, Kappa: pc / pa}
	if fit.Sigma < 0 {
		fit.Sigma = 0
	}
	if fit.Kappa < 0 {
		fit.Kappa = 0
	}
	// R² of the linearized regression (against y = N/X).
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssTot, ssRes float64
	for i, r := range rows {
		pred := pa + pb*r[1] + pc*r[2]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - mean) * (ys[i] - mean)
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	if fit.Kappa > 0 && fit.Sigma < 1 {
		fit.PeakN = math.Sqrt((1 - fit.Sigma) / fit.Kappa)
	}
	return fit, nil
}

// ScalePoint is one (workload, mutator count) measurement with its
// contention attribution attached.
type ScalePoint struct {
	Mutators int `json:"mutators"`
	// Throughput is completed operations per simulated second: Ops less
	// Failures, so a server that served nothing reads 0, not its
	// arrival schedule.
	Throughput float64 `json:"throughput"`
	// Speedup is Throughput relative to the series' smallest mutator
	// count.
	Speedup float64 `json:"speedup"`
	Ops     uint64  `json:"ops"`
	// Failures counts the KV requests among Ops that failed or were shed.
	Failures    uint64  `json:"failures"`
	ExecSeconds float64 `json:"exec_seconds"`
	GCCycles    int     `json:"gc_cycles"`
	Check       uint64  `json:"check"`
	// Imbalance is the GC-worker load imbalance coefficient
	// (stddev/mean) of the run's last cycle record.
	Imbalance float64 `json:"worker_imbalance"`
	// Sites is the run's ranked contention table, most-contended first
	// (top scalingTopSites).
	Sites []contention.SiteSnapshot `json:"sites"`
	// CAS is the run's ranked atomic-retry table (top scalingTopCAS).
	CAS []contention.OpSnapshot `json:"cas"`
}

// ScaleSeries is one workload's curve across the mutator ladder.
type ScaleSeries struct {
	Workload string       `json:"workload"`
	Points   []ScalePoint `json:"points"`
	Fit      *USLFit      `json:"usl_fit,omitempty"`
	// FitNote says why Fit is absent (degenerate ladder, too few
	// points); empty when the fit succeeded.
	FitNote string `json:"fit_note,omitempty"`
}

// ScaleSweep is the `-report scaling` result (scaling-report.json).
type ScaleSweep struct {
	Scale    float64       `json:"scale"`
	Seed     int64         `json:"seed"`
	Mutators []int         `json:"mutators"`
	Series   []ScaleSeries `json:"series"`
}

// RunScaleSweep runs every scaling workload across the mutator ladder,
// one fresh contention plane per run, and fits the USL per workload.
// muts nil/empty selects ScalingMutators.
func RunScaleSweep(muts []int, scale float64, seed int64, sink *hcsgc.TelemetrySink, progress Progress) (*ScaleSweep, error) {
	if len(muts) == 0 {
		muts = ScalingMutators
	}
	ladder := append([]int(nil), muts...)
	sort.Ints(ladder)
	uniq := ladder[:0]
	for _, n := range ladder {
		if n < 1 {
			return nil, fmt.Errorf("bench: scale sweep: mutator count %d < 1", n)
		}
		if len(uniq) == 0 || uniq[len(uniq)-1] != n {
			uniq = append(uniq, n)
		}
	}
	ladder = uniq
	if seed == 0 {
		seed = 1
	}
	sweep := &ScaleSweep{Scale: scale, Seed: seed, Mutators: ladder}
	knobs := KnobsFor(scalingConfig)

	for _, name := range scalingWorkloads {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		// One side per width, all on the same seed: fig4's checksum is
		// mutator-count invariant by construction, so runSides' cross-check
		// keeps a partitioning bug from masquerading as a scaling result.
		widths := make([]side, len(ladder))
		for i, n := range ladder {
			rc := workloads.RunConfig{Knobs: knobs, Mutators: n}
			if name == "kv" {
				// Open-loop arrivals: a fixed rate makes every width report
				// the schedule, not the server. Scale the offered load with
				// the thread count so the series measures whether the
				// runtime tracks N× the load with N× the servers —
				// per-thread load is constant, runtime pressure (alloc
				// rate, GC frequency, lock traffic) grows with N. Each
				// width then serves its own schedule, so its checksum is
				// its own.
				rc.LoadFactor = float64(n)
			}
			widths[i] = side{fmt.Sprintf("x%d", n), rc}
		}
		series := ScaleSeries{Workload: name, Points: make([]ScalePoint, len(ladder))}
		_, err = runSides("scale "+name, w, widths, 1, scale, seed, sink, progress,
			func(i int, rc *workloads.RunConfig) func(workloads.Result) {
				ctn := hcsgc.NewContentionPlane()
				rc.Contention = ctn
				lat := hcsgc.NewLatencyTracker(hcsgc.LatencyConfig{})
				rc.Latency = lat
				return func(out workloads.Result) {
					series.Points[i] = newScalePoint(ladder[i], out, ctn.Snapshot(), lat.Log())
				}
			})
		if err != nil {
			return nil, fmt.Errorf("bench: scale sweep: %w", err)
		}
		if base := series.Points[0].Throughput; base > 0 {
			for i := range series.Points {
				series.Points[i].Speedup = series.Points[i].Throughput / base
			}
		}
		ns := make([]float64, len(series.Points))
		xs := make([]float64, len(series.Points))
		for i, pt := range series.Points {
			ns[i] = float64(pt.Mutators)
			xs[i] = pt.Throughput
		}
		if fit, err := FitUSL(ns, xs); err != nil {
			series.FitNote = err.Error()
		} else {
			series.Fit = &fit
		}
		sweep.Series = append(sweep.Series, series)
	}

	return sweep, nil
}

// newScalePoint is the point a run at n mutators measured, with the top
// of its contention snapshot and the imbalance of its cycle log's last
// record attached.
func newScalePoint(n int, out workloads.Result, snap contention.Snapshot, log []*latency.CycleRecord) ScalePoint {
	pt := ScalePoint{
		Mutators:    n,
		Ops:         out.Ops,
		Failures:    uint64(out.Scores["kv-failures"]),
		ExecSeconds: out.ExecSeconds,
		GCCycles:    out.GCCycleCount,
		Check:       out.Check,
		Sites:       snap.Sites[:min(len(snap.Sites), scalingTopSites)],
		CAS:         snap.CAS[:min(len(snap.CAS), scalingTopCAS)],
	}
	if len(log) > 0 {
		pt.Imbalance = log[len(log)-1].Workers.Imbalance
	}
	if out.ExecSeconds > 0 {
		pt.Throughput = float64(pt.Ops-pt.Failures) / out.ExecSeconds
	}
	return pt
}

// Validate checks structural well-formedness: every series
// covers the full ladder in ascending order with positive throughput,
// each point's ranked contention table is monotone (most-contended
// first), and a successful fit is physical (λ > 0, σ, κ ≥ 0). Used by
// the CI smoke step.
func (s *ScaleSweep) Validate() error {
	if len(s.Series) == 0 {
		return fmt.Errorf("bench: scale sweep has no series")
	}
	for _, ser := range s.Series {
		if len(ser.Points) != len(s.Mutators) {
			return fmt.Errorf("bench: %s: %d points for %d mutator counts", ser.Workload, len(ser.Points), len(s.Mutators))
		}
		for i, pt := range ser.Points {
			if pt.Mutators != s.Mutators[i] {
				return fmt.Errorf("bench: %s point %d: mutators %d, want %d", ser.Workload, i, pt.Mutators, s.Mutators[i])
			}
			if pt.Throughput <= 0 {
				return fmt.Errorf("bench: %s x%d: non-positive throughput %g", ser.Workload, pt.Mutators, pt.Throughput)
			}
			for j := 1; j < len(pt.Sites); j++ {
				if pt.Sites[j].Contended > pt.Sites[j-1].Contended {
					return fmt.Errorf("bench: %s x%d: contention table not ranked: %q (%d) after %q (%d)",
						ser.Workload, pt.Mutators,
						pt.Sites[j].Name, pt.Sites[j].Contended,
						pt.Sites[j-1].Name, pt.Sites[j-1].Contended)
				}
			}
			for j := 1; j < len(pt.CAS); j++ {
				if pt.CAS[j].Retries > pt.CAS[j-1].Retries {
					return fmt.Errorf("bench: %s x%d: CAS table not ranked: %q after %q",
						ser.Workload, pt.Mutators, pt.CAS[j].Name, pt.CAS[j-1].Name)
				}
			}
		}
		if ser.Fit == nil {
			if len(s.Mutators) >= 3 {
				return fmt.Errorf("bench: %s: USL fit failed: %s", ser.Workload, ser.FitNote)
			}
			continue
		}
		if ser.Fit.Lambda <= 0 || ser.Fit.Sigma < 0 || ser.Fit.Kappa < 0 {
			return fmt.Errorf("bench: %s: unphysical USL fit %+v", ser.Workload, *ser.Fit)
		}
	}
	return nil
}

// WriteText renders the sweep as text: per workload, the
// throughput/speedup ladder with the top contended site at each width,
// the USL coefficients, and the full ranked table at the widest point.
func (s *ScaleSweep) WriteText(w io.Writer) {
	fmt.Fprintf(w, "=== scaling sweep: mutators %v, scale %g, seed %d ===\n", s.Mutators, s.Scale, s.Seed)
	for _, ser := range s.Series {
		fmt.Fprintf(w, "\n--- %s ---\n", ser.Workload)
		fmt.Fprintf(w, "%8s %14s %8s %9s %8s %10s  %s\n",
			"mutators", "ops/sec", "speedup", "failures", "gc", "imbalance", "top contended site")
		for _, pt := range ser.Points {
			top := "-"
			if len(pt.Sites) > 0 && pt.Sites[0].Contended > 0 {
				t := pt.Sites[0]
				top = fmt.Sprintf("%s (%d/%d, %.1f%%)", t.Name, t.Contended, t.Acquisitions, 100*t.ContendedFrac)
			}
			fmt.Fprintf(w, "%8d %14.0f %8.2f %9d %8d %10.3f  %s\n",
				pt.Mutators, pt.Throughput, pt.Speedup, pt.Failures, pt.GCCycles, pt.Imbalance, top)
		}
		if ser.Fit != nil {
			f := ser.Fit
			fmt.Fprintf(w, "USL fit: lambda %.0f ops/s, sigma %.4f (contention), kappa %.6f (crosstalk), R2 %.3f",
				f.Lambda, f.Sigma, f.Kappa, f.R2)
			if f.PeakN > 0 {
				fmt.Fprintf(w, ", predicted peak at %.0f mutators", f.PeakN)
			}
			fmt.Fprintln(w)
		} else {
			fmt.Fprintf(w, "USL fit: unavailable (%s)\n", ser.FitNote)
		}
		wide := ser.Points[len(ser.Points)-1]
		fmt.Fprintf(w, "ranked contention, %d mutators:\n", wide.Mutators)
		for _, site := range wide.Sites {
			fmt.Fprintf(w, "  %-28s acq %10d  contended %8d (%5.1f%%)  wait p99 %8.0fns\n",
				site.Name, site.Acquisitions, site.Contended, 100*site.ContendedFrac, site.WaitP99NS)
		}
		for _, c := range wide.CAS {
			fmt.Fprintf(w, "  %-28s ops %10d  retries   %8d (%5.1f%%)  [cas]\n",
				c.Name, c.Ops, c.Retries, 100*c.RetryFrac)
		}
	}
}

// WriteJSON renders the full sweep (scaling-report.json).
func (s *ScaleSweep) WriteJSON(w io.Writer) error { return writeJSON(w, s) }
