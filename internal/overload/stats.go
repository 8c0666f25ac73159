package overload

import (
	"fmt"
	"sync/atomic"

	"hcsgc/internal/telemetry"
	"hcsgc/internal/telemetry/latency"
)

// Stats accumulates the serving path's request-outcome accounting: stale
// sheds, fast-fail outcomes (deadline expiries, per-request OOM failures),
// and the goodput/badput split over successful requests. Every request
// ends exactly once, as a success or a failure. All recording is lock-free
// and nil-safe; instances merge across server threads and across A/B
// repeat runs.
//
// The outcomes are accounted per thread: each KV server thread records
// them into a Stats of its own and folds it into the run's (FoldInto)
// every 1024 requests it handles and when it exits, so the run's
// accumulator — what /overload serves — lags each thread by at most 1024
// requests and is exact once the run ends.
type Stats struct {
	withinSLO atomic.Uint64
	spanV     atomic.Uint64
	// serveAllocBytes is the heap allocation volume performed by serving
	// threads inside the serving window. The forced-expiry regression test
	// pins it to 0 when every allocation budget expires before the first
	// heap touch.
	serveAllocBytes atomic.Uint64

	// The outcome counts. BindTelemetry has the registry adopt sheds, so it
	// is stored once.
	sheds     telemetry.Counter
	deadline  telemetry.Counter
	oom       telemetry.Counter
	failures  telemetry.Counter
	successes telemetry.Counter

	// success holds successful-request latencies (enqueue to completion)
	// across all phases.
	success *latency.Hist
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{success: latency.NewHist()}
}

// RecordShed records one request shed at dequeue because its queueing
// delay had already consumed its SLO budget: serving it could only produce
// an over-SLO response (badput), so dropping it is strictly better — the
// freed capacity goes to requests that can still meet the SLO. The request
// is also a failure; the caller records that.
func (st *Stats) RecordShed() {
	if st == nil {
		return
	}
	st.sheds.Add(1)
}

// RecordDeadlineExceeded records one request failed fast by its deadline:
// dropped at dequeue past it, or unwound by its allocation budget.
func (st *Stats) RecordDeadlineExceeded() {
	if st == nil {
		return
	}
	st.deadline.Add(1)
}

// RecordOOMFailure records one request failed by heap exhaustion
// (surfaced as a per-request failure instead of aborting the run).
func (st *Stats) RecordOOMFailure() {
	if st == nil {
		return
	}
	st.oom.Add(1)
}

// RecordFailure records one request that ended without completing.
//
//hcsgc:alloc-free
func (st *Stats) RecordFailure() {
	if st == nil {
		return
	}
	st.failures.Add(1)
}

// RecordSuccess records one completed request: its enqueue-to-completion
// latency (virtual cycles) and whether it landed within the goodput SLO.
//
//hcsgc:alloc-free
func (st *Stats) RecordSuccess(latV uint64, withinSLO bool) {
	if st == nil {
		return
	}
	st.successes.Add(1)
	st.success.Record(latV)
	if withinSLO {
		st.withinSLO.Add(1)
	}
}

// AddServeSpan accumulates one run's serving span (virtual cycles); the
// goodput rate is normalized against it.
func (st *Stats) AddServeSpan(v uint64) {
	if st == nil {
		return
	}
	st.spanV.Add(v)
}

// AddServeAllocBytes accumulates serving-window heap allocation volume.
func (st *Stats) AddServeAllocBytes(v uint64) {
	if st == nil {
		return
	}
	st.serveAllocBytes.Add(v)
}

// ServeAllocBytes returns the accumulated serving-window allocation
// volume (0 unless a signal plane was attached).
func (st *Stats) ServeAllocBytes() uint64 {
	if st == nil {
		return 0
	}
	return st.serveAllocBytes.Load()
}

// Merge folds o into st (histograms slot-wise, counters additively).
//
//hcsgc:alloc-free
func (st *Stats) Merge(o *Stats) {
	if st == nil || o == nil {
		return
	}
	st.sheds.Add(o.sheds.Value())
	st.deadline.Add(o.deadline.Value())
	st.oom.Add(o.oom.Value())
	st.failures.Add(o.failures.Value())
	st.successes.Add(o.successes.Value())
	st.withinSLO.Add(o.withinSLO.Load())
	st.spanV.Add(o.spanV.Load())
	st.serveAllocBytes.Add(o.serveAllocBytes.Load())
	st.success.Merge(o.success)
}

// FoldInto moves what st accumulated into dst and empties st. Owner only:
// a server thread folds its private Stats into the run's, so the shared
// cells take one write per fold instead of one per request.
//
//hcsgc:alloc-free
func (st *Stats) FoldInto(dst *Stats) {
	if st == nil {
		return
	}
	dst.Merge(st)
	st.success.Reset()
	*st = Stats{success: st.success}
}

// BindTelemetry has reg serve the stale-shed count from this
// accumulator (re-pointing it if another was bound) — the one overload
// series a diagnosis recipe reads (EXPERIMENTS.md). The rest of the
// accounting is the /overload endpoint's Report.
func (st *Stats) BindTelemetry(reg *telemetry.Registry) {
	if st == nil || reg == nil {
		return
	}
	reg.Adopt("hcsgc_overload_stale_sheds_total",
		"Requests shed at dequeue with their SLO budget already consumed by queueing delay.", &st.sheds)
}

// Report is the outcome accounting's snapshot, JSON-shaped for the
// /overload endpoint and the bench report.
type Report struct {
	// Sheds counts requests dropped at dequeue because queueing delay had
	// already consumed the SLO budget.
	Sheds uint64 `json:"sheds"`

	// Failures partition into Sheds, DeadlineExceeded and OOMFailures.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	OOMFailures      uint64 `json:"oom_failures"`
	Failures         uint64 `json:"failures"`

	Successes uint64 `json:"successes"`
	// Goodput/Badput split completed work: successes within the SLO vs
	// over-SLO successes plus definitive failures.
	Goodput uint64 `json:"goodput"`
	Badput  uint64 `json:"badput"`
	// GoodputPerMcycle normalizes goodput against the serving span.
	GoodputPerMcycle float64 `json:"goodput_per_mcycle"`
	// ShedRate is sheds over offered (successes + failures) requests.
	ShedRate float64 `json:"shed_rate"`

	SLOThresholdCycles uint64 `json:"slo_threshold_cycles"`
	ServeSpanVCycles   uint64 `json:"serve_span_vcycles"`

	// Success is the successful-request latency distribution (virtual
	// cycles, all phases).
	Success latency.Dist `json:"success"`
}

// Report snapshots the accumulator against the given goodput SLO.
func (st *Stats) Report(sloCycles uint64) Report {
	if st == nil {
		return Report{SLOThresholdCycles: sloCycles}
	}
	r := Report{
		Sheds:              st.sheds.Value(),
		DeadlineExceeded:   st.deadline.Value(),
		OOMFailures:        st.oom.Value(),
		Failures:           st.failures.Value(),
		Successes:          st.successes.Value(),
		Goodput:            st.withinSLO.Load(),
		SLOThresholdCycles: sloCycles,
		ServeSpanVCycles:   st.spanV.Load(),
		Success:            st.success.Dist(),
	}
	r.Badput = (r.Successes - r.Goodput) + r.Failures
	if offered := r.Successes + r.Failures; offered > 0 {
		r.ShedRate = float64(r.Sheds) / float64(offered)
	}
	if r.ServeSpanVCycles > 0 {
		r.GoodputPerMcycle = float64(r.Goodput) / (float64(r.ServeSpanVCycles) / 1e6)
	}
	return r
}

// Validate checks a report's structural invariants: the goodput split
// must partition successes, the failure causes must partition failures,
// and the shed rate must be a fraction.
func (r Report) Validate() error {
	if r.Goodput > r.Successes {
		return fmt.Errorf("overload: goodput %d exceeds successes %d", r.Goodput, r.Successes)
	}
	if r.Badput != (r.Successes-r.Goodput)+r.Failures {
		return fmt.Errorf("overload: badput %d does not partition successes/failures", r.Badput)
	}
	if causes := r.Sheds + r.DeadlineExceeded + r.OOMFailures; causes != r.Failures {
		return fmt.Errorf("overload: %d sheds + %d deadline expiries + %d OOM failures != %d failures",
			r.Sheds, r.DeadlineExceeded, r.OOMFailures, r.Failures)
	}
	if r.ShedRate < 0 || r.ShedRate > 1 {
		return fmt.Errorf("overload: shed rate %v out of [0,1]", r.ShedRate)
	}
	if d := r.Success; d.Count > 0 && (d.P50 > d.P99 || d.P99 > d.P999 || d.P999 > d.Max) {
		return fmt.Errorf("overload: success quantiles not monotone")
	}
	if d := r.Success; d.Count != r.Successes {
		return fmt.Errorf("overload: success histogram count %d != successes %d", d.Count, r.Successes)
	}
	return nil
}
