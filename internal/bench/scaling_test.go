package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hcsgc/internal/contention"
	"hcsgc/internal/telemetry/latency"
	"hcsgc/internal/workloads"
)

// uslPoints evaluates the exact USL model on a ladder.
func uslPoints(lambda, sigma, kappa float64, ladder []int) (ns, xs []float64) {
	for _, n := range ladder {
		fn := float64(n)
		ns = append(ns, fn)
		xs = append(xs, lambda*fn/(1+sigma*(fn-1)+kappa*fn*(fn-1)))
	}
	return ns, xs
}

// TestFitUSLAmdahl: points generated from a pure-contention (Amdahl)
// curve must recover sigma with kappa ~ 0 — the linearized fit is exact
// on noiseless data.
func TestFitUSLAmdahl(t *testing.T) {
	const lambda, sigma = 1000.0, 0.08
	ns, xs := uslPoints(lambda, sigma, 0, []int{1, 2, 4, 8, 16, 64})
	fit, err := FitUSL(ns, xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Sigma-sigma) > 1e-9 {
		t.Errorf("sigma = %g, want %g", fit.Sigma, sigma)
	}
	if fit.Kappa > 1e-9 {
		t.Errorf("kappa = %g, want ~0", fit.Kappa)
	}
	if math.Abs(fit.Lambda-lambda) > 1e-6 {
		t.Errorf("lambda = %g, want %g", fit.Lambda, lambda)
	}
	if fit.R2 < 0.9999 {
		t.Errorf("R2 = %g on noiseless data", fit.R2)
	}
	// Fitted kappa may be positive rounding residue; any resulting
	// "peak" must then sit far outside the operating range.
	if fit.PeakN != 0 && fit.PeakN < 1e4 {
		t.Errorf("PeakN = %g: spurious interior peak on an Amdahl curve", fit.PeakN)
	}
}

// TestFitUSLCrosstalk: with kappa > 0 the fit must recover both
// coefficients, predict the inputs back, and place the interior peak at
// sqrt((1-sigma)/kappa).
func TestFitUSLCrosstalk(t *testing.T) {
	const lambda, sigma, kappa = 500.0, 0.05, 0.002
	ladder := []int{1, 2, 4, 8, 16, 32, 64}
	ns, xs := uslPoints(lambda, sigma, kappa, ladder)
	fit, err := FitUSL(ns, xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Sigma-sigma) > 1e-9 || math.Abs(fit.Kappa-kappa) > 1e-9 {
		t.Errorf("fit = sigma %g kappa %g, want %g %g", fit.Sigma, fit.Kappa, sigma, kappa)
	}
	wantPeak := math.Sqrt((1 - sigma) / kappa)
	if math.Abs(fit.PeakN-wantPeak) > 1e-6 {
		t.Errorf("PeakN = %g, want %g", fit.PeakN, wantPeak)
	}
	for i := range ns {
		if math.Abs(fit.Predict(ns[i])-xs[i]) > 1e-6*xs[i] {
			t.Errorf("Predict(%g) = %g, want %g", ns[i], fit.Predict(ns[i]), xs[i])
		}
	}
}

// TestFitUSLErrors pins the failure modes: mismatched slices, too few
// distinct mutator counts (zero-throughput points do not count).
func TestFitUSLErrors(t *testing.T) {
	if _, err := FitUSL([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths must error")
	}
	if _, err := FitUSL([]float64{1, 2}, []float64{100, 150}); err == nil {
		t.Error("two points must error (three unknowns)")
	}
	if _, err := FitUSL([]float64{1, 2, 4}, []float64{100, 150, 0}); err == nil {
		t.Error("zero throughput drops the point; two left must error")
	}
	if _, err := FitUSL([]float64{2, 2, 2, 2}, []float64{10, 10, 10, 10}); err == nil {
		t.Error("repeated mutator count must error")
	}
}

// TestRunScaleSweepSmall runs the real sweep on a tiny ladder and checks
// the structural contract end to end: validation passes, the fig4
// checksum is mutator-count invariant, the ranked tables are monotone,
// the text report carries the curve.
func TestRunScaleSweepSmall(t *testing.T) {
	sweep, err := RunScaleSweep([]int{1, 2, 4}, 0.02, 7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Series) != 2 {
		t.Fatalf("series = %d, want fig4 + kv", len(sweep.Series))
	}
	for _, ser := range sweep.Series {
		if ser.Fit == nil {
			t.Errorf("%s: no USL fit on a 3-point ladder: %s", ser.Workload, ser.FitNote)
			continue
		}
		if ser.Fit.Lambda <= 0 {
			t.Errorf("%s: lambda = %g", ser.Workload, ser.Fit.Lambda)
		}
		if ser.Points[0].Speedup != 1 {
			t.Errorf("%s: baseline speedup = %g, want 1", ser.Workload, ser.Points[0].Speedup)
		}
		if ser.Workload == "fig4" {
			for _, pt := range ser.Points[1:] {
				if pt.Check != ser.Points[0].Check {
					t.Errorf("fig4 checksum %d at x%d != %d", pt.Check, pt.Mutators, ser.Points[0].Check)
				}
			}
		}
	}

	var b bytes.Buffer
	sweep.WriteText(&b)
	out := b.String()
	for _, want := range []string{"--- fig4 ---", "--- kv ---", "USL fit:", "ranked contention, 4 mutators:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// A server that failed every request measured nothing: the gate's
	// positive-throughput clause refuses the point.
	kv := sweep.Series[1].Points
	live := kv[0]
	kv[0] = newScalePoint(1, workloads.Result{
		Ops: live.Ops, ExecSeconds: live.ExecSeconds,
		Scores: map[string]float64{"kv-failures": float64(live.Ops)},
	}, contention.Snapshot{}, nil)
	if err := sweep.Validate(); err == nil || !strings.Contains(err.Error(), "kv x1: non-positive throughput") {
		t.Errorf("Validate accepted a dead width-1 KV server: %v", err)
	}
}

// TestScalePointImbalanceIsTheLastCycles: a point's imbalance is the worker
// section of the last record of the run's cycle log; a run that logged no
// cycle reads 0.
func TestScalePointImbalanceIsTheLastCycles(t *testing.T) {
	log := []*latency.CycleRecord{
		{Seq: 1, Workers: latency.WorkerDelta{Present: true, Workers: 2, Imbalance: 0.25}},
		{Seq: 2, Workers: latency.WorkerDelta{Present: true, Workers: 2, Imbalance: 0.125}},
	}
	if got := newScalePoint(2, workloads.Result{}, contention.Snapshot{}, log).Imbalance; got != 0.125 {
		t.Errorf("imbalance = %g, want the last record's 0.125", got)
	}
	if got := newScalePoint(2, workloads.Result{}, contention.Snapshot{}, nil).Imbalance; got != 0 {
		t.Errorf("imbalance without cycles = %g, want 0", got)
	}
}

// TestRunScaleSweepRejectsBadLadder: mutator counts below one fail fast.
func TestRunScaleSweepRejectsBadLadder(t *testing.T) {
	if _, err := RunScaleSweep([]int{0, 2}, 0.02, 1, nil, nil); err == nil {
		t.Fatal("mutator count 0 must error")
	}
}
